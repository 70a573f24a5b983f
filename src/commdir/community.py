"""User-community discovery and pruned community directories.

Users become vertices of a similarity graph (cosine over their usage
vectors, thresholded at tau); the dot products come from one pass over a
category -> (user, count) inverted index, so above tau 0 only users who
share a category are scored, since any other pair scores 0. Communities
are the maximal cliques of that graph, enumerated with Bron-Kerbosch
pivoting, so communities may overlap.
Each community's directory keeps the categories whose score, the product
of a-priori category informativeness and the fraction of the community's
hits falling inside the category's subtree, clears theta, plus all their
ancestors so the result stays a rooted tree.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .classify import UsageVector
from .taxonomy import ROOT, Taxonomy, ancestors

DEFAULT_TAU = 0.5
DEFAULT_THETA = 0.1
DEFAULT_MIN_SIZE = 2
DEFAULT_CLIQUE_CAP = 1_000_000


class ExplosionGuardError(RuntimeError):
    """Clique enumeration produced more maximal cliques than the cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} maximal cliques; raise the cap or tau")
        self.cap = cap


@dataclass(frozen=True)
class SimilarityGraph:
    """Each user's neighbours, users in sorted order."""

    adjacency: dict[str, frozenset[str]]

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(self.adjacency)


@dataclass(frozen=True)
class Community:
    """A user group with its aggregated category profile."""

    members: tuple[str, ...]
    profile: dict[str, int]
    total: int


@dataclass(frozen=True)
class CommunityDirectory:
    """Ancestor-closed scored category subset selected for one community."""

    community: Community
    selected: dict[str, float]
    theta: float


def _cosine(dot: int, na: int, nb: int) -> float:
    """Cosine from a dot product and the two squared norms."""
    if dot == 0:
        return 0.0
    # na*nb is an exact integer, so parallel vectors hit exactly 1.0.
    return min(1.0, dot / math.sqrt(na * nb))


def threshold_join(weights: Mapping[str, Mapping[object, int]],
                   score: Callable[[int, int, int], float],
                   threshold: float) -> dict[str, frozenset[str]]:
    """Adjacency of the id pairs whose score reaches threshold, keys in sorted order.

    Each item is a {key: positive int} map. An inverted-index join: items are
    visited in sorted-id order, and each one adds up its dot product with the
    earlier items from its keys' {id: weight} postings, then adds itself to
    them. A pair is linked when ``score(dot, |x|², |y|²) >= threshold``, so
    the cost grows with the posting entries scanned, not with all n(n-1)/2
    pairs, when keys are sparse. Pairs that share no key are never scored:
    they are linked only when both items are empty and ``score(0, 0, 0)``
    reaches threshold. At threshold <= 0 every pair is linked unscored,
    since no score is negative.
    """
    ordered = sorted(weights)
    if threshold <= 0:
        everyone = frozenset(ordered)
        return {b: everyone - {b} for b in ordered}
    adj: dict[str, set[str]] = {b: set() for b in ordered}
    # Dict postings, not lists of (id, weight) tuples: an entry is no object
    # the garbage collector must track, so a large heap is not rescanned.
    index: dict[object, dict[str, int]] = {}
    norms: dict[str, int] = {}
    for b in ordered:
        dots: dict[str, int] = {}
        for key, w in weights[b].items():
            posting = index.setdefault(key, {})
            for a, v in posting.items():
                dots[a] = dots.get(a, 0) + v * w
            posting[b] = w
        nb = norms[b] = sum(w * w for w in weights[b].values())
        for a, dot in dots.items():
            if score(dot, norms[a], nb) >= threshold:
                adj[a].add(b)
                adj[b].add(a)
    empty = {b for b in ordered if not weights[b]}
    if len(empty) > 1 and score(0, 0, 0) >= threshold:
        for b in empty:
            adj[b] |= empty - {b}
    return {k: frozenset(n) for k, n in adj.items()}


def build_graph(vectors: Iterable[UsageVector], tau: float = DEFAULT_TAU) -> SimilarityGraph:
    """Graph with an edge wherever pairwise similarity reaches tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1]: {tau!r}")
    vecs = list(vectors)
    counts = {v.user: v.counts for v in vecs}
    if len(counts) != len(vecs):
        raise ValueError("duplicate user ids in vectors")
    if any(n < 0 for c in counts.values() for n in c.values()):
        raise ValueError("negative count in vectors")
    return SimilarityGraph(threshold_join(counts, _cosine, tau))


def find_communities(graph: SimilarityGraph, min_size: int = DEFAULT_MIN_SIZE,
                     keep_singletons: bool = False,
                     clique_cap: int = DEFAULT_CLIQUE_CAP) -> list[tuple[str, ...]]:
    """All maximal cliques of size >= min_size, as sorted member tuples.

    Isolated vertices (maximal cliques of size 1) are included when
    ``keep_singletons`` is set even if min_size is larger. Output is
    canonically ordered, so it is independent of input and search order.
    Raises ExplosionGuardError once more than ``clique_cap`` maximal cliques
    exist.
    """
    adj = graph.adjacency
    found = 0
    kept: list[tuple[str, ...]] = []

    def frame(r: tuple[str, ...], p: set[str], x: set[str]):
        # Tomita's pivot maximizes |adj[u] & p|, but any pivot in P | X is
        # correct, so the scan stops at one that leaves at most one branch.
        pivot, most = None, -1
        for u in itertools.chain(x, p):
            n = len(adj[u] & p)
            if n > most:
                pivot, most = u, n
                if n >= len(p) - 1:
                    break
        return r, p, x, iter(sorted(p - adj[pivot]))

    # Bron-Kerbosch on an explicit stack, free of the recursion limit.
    stack = [frame((), set(adj), set())] if adj else []
    while stack:
        r, p, x, todo = stack[-1]
        for v in todo:
            rv, pv, xv = r + (v,), p & adj[v], x & adj[v]
            p.remove(v)
            x.add(v)
            if pv:
                stack.append(frame(rv, pv, xv))
                break
            if xv:
                continue
            found += 1
            if found > clique_cap:
                raise ExplosionGuardError(clique_cap)
            if len(rv) >= min_size or (keep_singletons and len(rv) == 1):
                kept.append(tuple(sorted(rv)))
        else:
            stack.pop()
    return sorted(kept)


def community_profile(members: Iterable[str], vectors: Iterable[UsageVector]) -> Community:
    """Materialize a community: summed counts over its members."""
    by_user = {v.user: v for v in vectors}
    profile: Counter = Counter()
    member_list = tuple(sorted(members))
    for member in member_list:
        profile.update(by_user[member].counts)
    return Community(member_list, dict(sorted(profile.items())), sum(profile.values()))


def build_community_directory(tax: Taxonomy, community: Community,
                              theta: float = DEFAULT_THETA) -> CommunityDirectory:
    """Select categories scoring >= theta, closed upward over ancestors.

    A category scores weight * (hits in its subtree / community total), so
    only categories on a hit path score above 0 and only those are scored,
    except at theta=0, which selects the whole taxonomy. Ancestors pulled in
    for closure keep their own (possibly sub-theta) scores; an empty
    selection means no category reached theta.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1]: {theta!r}")
    hits: Counter = Counter()
    for cat, n in community.profile.items():
        for path in (*ancestors(cat), cat):
            hits[path] += n
    cats = tax.categories
    scores = {path: cats[path].weight * (hits[path] / community.total)
              for path in (cats if theta == 0 else hits) if path in cats}
    selected: dict[str, float] = {}
    for path, score in scores.items():
        if score >= theta:
            selected[path] = score
            for anc in ancestors(path):
                selected.setdefault(anc, scores[anc])
    return CommunityDirectory(community, dict(sorted(selected.items())), theta)


def directory_text(cdir: CommunityDirectory, tax: Taxonomy) -> str:
    """Indented deterministic text tree, one ``path  score`` line per category."""
    selected = cdir.selected
    kids = tax.children_map
    # A selection is ancestor-closed, so only selected children are descended.
    lines, stack = [], [(ROOT, 0)] if selected else []
    while stack:
        path, d = stack.pop()
        lines.append(f"{'  ' * d}{path}  {selected[path]:.6f}")
        stack.extend((c, d + 1) for c in reversed(kids[path]) if c in selected)
    return "\n".join(lines) + ("\n" if lines else "")


def directory_doc(cdir: CommunityDirectory, tax: Taxonomy) -> dict:
    """JSON-ready document: members, theta, and the scored category tree."""
    selected = cdir.selected
    kids = tax.children_map

    def node(path: str) -> dict:
        return {
            "path": path,
            "score": selected[path],
            "children": [node(c) for c in kids[path] if c in selected],
        }

    return {
        "members": list(cdir.community.members),
        "theta": cdir.theta,
        "total_hits": cdir.community.total,
        "tree": node(ROOT) if selected else None,
    }
