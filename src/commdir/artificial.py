"""Artificial web directory built by clustering the sites seen in a log.

When no curated taxonomy exists, sites are profiled by the URL tokens of
their logged pages and grouped by single-linkage clustering over Jaccard
similarity of those token sets: a cluster is a connected component of the
graph whose edges join the site pairs at least sigma-similar; the blocks
are merged pair by pair, with no graph built. The pairs come from the
threshold join that links similar users, with each token weighted 1, so
a dot product is the size of an intersection and a squared norm the size
of a set; the rule is decided in integers, sigma read as the decimal it
prints as. Only sites that share a token are tested; token-less sites
share a stand-in one, as Jaccard(∅, ∅) = 1. At sigma 0 the partition is
one block, found without the join. The result is a two-level taxonomy
(cluster -> member sites) usable by every downstream stage, with
top-token keyword summaries and depth-defaulted weights.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .community import threshold_join
from .taxonomy import ROOT, Taxonomy, make_taxonomy
from .urls import PageRef, tokenize

DEFAULT_SIGMA = 0.5
_KEYWORDS_PER_CATEGORY = 5


@dataclass(frozen=True)
class SiteProfile:
    """Evidence for one site: combined token counts and hit total of its pages."""

    site: str
    tokens: Counter
    hits: int


def profile_sites(refs: Iterable[PageRef] | Mapping[PageRef, int]) -> list[SiteProfile]:
    """One profile per non-local site, sorted by site name; local pages skipped.

    ``refs`` holds one reference per hit, or is a Counter of each reference's
    hits. Each distinct reference is tokenized once, its token counts scaled
    by its hits.
    """
    tokens: defaultdict[str, Counter] = defaultdict(Counter)
    hits: Counter = Counter()
    for ref, n in Counter(refs).items():
        if ref.site is None:
            continue
        hits[ref.site] += n
        tokens[ref.site].update(
            {token: count * n for token, count in tokenize(ref).items()})
    return [SiteProfile(site, tokens[site], hits[site]) for site in sorted(hits)]


def cluster_sites(profiles: Sequence[SiteProfile], sigma: float = DEFAULT_SIGMA) -> list[tuple[str, ...]]:
    """Single-linkage clusters over Jaccard similarity of site token sets.

    Clusters are the connected components of the >=sigma similarity graph,
    so the partition at a higher sigma always refines the one at a lower
    sigma. They are merged pair by pair, the smaller block into the larger.
    Output is sorted tuples of sorted sites. sigma 0 gives one block without
    testing a pair; sigma > 1 is allowed and yields singletons.
    """
    if not 0.0 <= sigma < float("inf"):
        raise ValueError(f"sigma must be a finite number >= 0: {sigma!r}")
    if sigma == 0:
        return [tuple(sorted({p.site for p in profiles}))] if profiles else []
    exact = Fraction(str(sigma))
    num, den = exact.numerator, exact.denominator
    block_of = {p.site: [p.site] for p in profiles}
    # Jaccard >= sigma  <=>  |a ∩ b| · den >= num · |a ∪ b|.
    for a, b in threshold_join({p.site: dict.fromkeys(p.tokens or [None], 1) for p in profiles},
                               lambda inter, na, nb: inter * den >= num * (na + nb - inter)):
        large, small = block_of[a], block_of[b]
        if large is not small:
            if len(large) < len(small):
                large, small = small, large
            large += small
            for site in small:
                block_of[site] = large
    # A block keeps its first site, so it is listed once, under that site.
    return sorted(tuple(sorted(block)) for site, block in block_of.items() if block[0] == site)


def _top_tokens(tokens: Counter) -> tuple[str, ...]:
    ranked = sorted(tokens.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(tok for tok, _ in ranked[:_KEYWORDS_PER_CATEGORY])


def build_artificial_directory(partition: Sequence[Sequence[str]],
                               profiles: Sequence[SiteProfile]) -> Taxonomy:
    """Two-level taxonomy from a site partition.

    One child per cluster, named Cluster-<k> with k assigned by descending
    total hits (ties: smallest member site), keyworded with the cluster's
    top tokens; one grandchild per member site with the site's own top
    tokens. Weights are left to the depth default.
    """
    by_site = {p.site: p for p in profiles}
    if not all(partition) or \
            sorted(site for block in partition for site in block) != sorted(by_site):
        raise ValueError("partition must list each profiled site exactly once,"
                         " in blocks that are not empty")

    def block_key(block: Sequence[str]) -> tuple[int, str]:
        return (-sum(by_site[s].hits for s in block), min(block))

    entries: dict[str, tuple[Iterable[str], float | None]] = {}
    for k, block in enumerate(sorted(partition, key=block_key), 1):
        cluster_tokens: Counter = Counter()
        for site in block:
            cluster_tokens.update(by_site[site].tokens)
        cluster_path = f"{ROOT}/Cluster-{k}"
        entries[cluster_path] = (_top_tokens(cluster_tokens), None)
        for site in sorted(block):
            entries[f"{cluster_path}/{site}"] = (_top_tokens(by_site[site].tokens), None)
    return make_taxonomy(entries)
