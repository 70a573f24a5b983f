"""User-community discovery and pruned community directories.

Users become vertices of a similarity graph (cosine over their usage
vectors, thresholded at tau; above tau 0, only users who share a category
are compared, since any other pair scores 0); communities are the maximal
cliques of that graph, enumerated with Bron-Kerbosch pivoting, so
communities may overlap.
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
from typing import Callable, Collection, Iterable, Mapping, TypeVar

from .classify import UsageVector
from .taxonomy import ROOT, Taxonomy, ancestors

DEFAULT_TAU = 0.5
DEFAULT_THETA = 0.1
DEFAULT_MIN_SIZE = 2
DEFAULT_CLIQUE_CAP = 1_000_000

T = TypeVar("T")


class ExplosionGuardError(RuntimeError):
    """Clique enumeration produced more maximal cliques than the cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} maximal cliques; raise the cap or tau")
        self.cap = cap


@dataclass(frozen=True)
class SimilarityGraph:
    vertices: tuple[str, ...]
    adjacency: dict[str, frozenset[str]]
    tau: float

    def edges(self) -> list[tuple[str, str]]:
        return sorted((u, v) for u in self.vertices for v in self.adjacency[u] if u < v)


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


def _cosine(a: tuple[Mapping[str, int], int], b: tuple[Mapping[str, int], int]) -> float:
    """Cosine of two (counts, squared norm) pairs."""
    (ca, na), (cb, nb) = a, b
    if len(cb) < len(ca):
        ca, cb = cb, ca
    dot = 0
    for key, x in ca.items():
        y = cb.get(key)
        if y:
            dot += x * y
    if dot == 0:
        return 0.0
    # na*nb is an exact integer, so parallel vectors hit exactly 1.0.
    return min(1.0, dot / math.sqrt(na * nb))


def _with_norm(v: UsageVector) -> tuple[Mapping[str, int], int]:
    return v.counts, sum(x * x for x in v.counts.values())


def similarity(u: UsageVector, v: UsageVector) -> float:
    """Cosine similarity of two usage vectors (unspecified coordinate included)."""
    return _cosine(_with_norm(u), _with_norm(v))


# The one key of every item when every pair must be compared (threshold <= 0),
# and the one key of every keyless item otherwise.
_EVERY_PAIR = object()
_NO_KEYS = object()


def threshold_join(items: Mapping[str, T], keys: Callable[[T], Collection],
                   sim: Callable[[T, T], float],
                   threshold: float) -> dict[str, frozenset[str]]:
    """Adjacency of the id pairs whose similarity reaches threshold, keys in sorted order.

    An inverted-index join: items are visited in sorted-id order, each one
    looked up in a key -> ids-so-far index for its candidate partners, then
    appended to its keys' posting lists (``keys(item)``; an empty collection
    makes the item keyless). Above threshold 0 the candidates are the pairs
    that share a key, plus every pair of keyless items; at threshold <= 0
    every pair is a candidate. Each candidate (x earlier, y later) is kept
    when ``sim(x, y) >= threshold``, so the cost grows with the candidate
    pairs, not with all n(n-1)/2 pairs, when keys are sparse.

    Contract on ``sim`` and ``keys``: for a positive threshold, two items
    that share no key must score below it unless both are keyless. Cosine
    over positive counts (0.0 without a shared category) and Jaccard over
    token sets (0.0 without a shared token; 1.0 for two empty sets) meet it.
    """
    ordered = sorted(items.items())
    index: dict[object, list[int]] = {}
    adj: dict[str, set[str]] = {}
    for j, (b, y) in enumerate(ordered):
        postings = [index.setdefault(k, []) for k in
                    ((_EVERY_PAIR,) if threshold <= 0 else keys(y) or (_NO_KEYS,))]
        near = adj[b] = set()
        for i in set().union(*postings):
            a, x = ordered[i]
            if sim(x, y) >= threshold:
                near.add(a)
                adj[a].add(b)
        for posting in postings:
            posting.append(j)
    return {k: frozenset(n) for k, n in adj.items()}


def build_graph(vectors: Iterable[UsageVector], tau: float = DEFAULT_TAU) -> SimilarityGraph:
    """Graph with an edge wherever pairwise similarity reaches tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1]: {tau!r}")
    vecs = list(vectors)
    by_user = {v.user: v for v in vecs}
    if len(by_user) != len(vecs):
        raise ValueError("duplicate user ids in vectors")
    # Each squared norm is computed once, not once per candidate pair.
    with_norms = {user: _with_norm(v) for user, v in by_user.items()}
    adj = threshold_join(with_norms, lambda cn: cn[0], _cosine, tau)
    return SimilarityGraph(tuple(adj), adj, tau)


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
    stack = [frame((), set(graph.vertices), set())] if graph.vertices else []
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


def category_scores(community: Community, tax: Taxonomy) -> dict[str, float]:
    """weight(path) * fraction of the community's hits in path's subtree, per category."""
    hits: Counter = Counter()
    for cat, n in community.profile.items():
        for path in (*ancestors(cat), cat):
            hits[path] += n
    return {path: c.weight * (hits[path] / community.total)
            for path, c in tax.categories.items()}


def build_community_directory(tax: Taxonomy, community: Community,
                              theta: float = DEFAULT_THETA) -> CommunityDirectory:
    """Select categories scoring >= theta, closed upward over ancestors.

    Ancestors pulled in for closure keep their own (possibly sub-theta)
    scores. theta=0 selects the whole taxonomy; an empty selection means no
    category reached theta.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1]: {theta!r}")
    scores = category_scores(community, tax)
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
    lines = [f"{'  ' * d}{path}  {selected[path]:.6f}"
             for path, d in tax.walk() if path in selected]
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
