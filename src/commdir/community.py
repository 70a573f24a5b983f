"""User-community discovery and pruned community directories.

Users become vertices of a similarity graph, linked where the cosine of
their usage vectors reaches tau (read as the decimal it prints as: 0.4 is
2/5), decided in integers, so scaling the counts never changes an edge. The
dot products come from one pass over a category -> (user, count) inverted
index, so only users who share a category are tested, since any other pair
has cosine 0; tau 0 links all pairs untested. The join yields pairs; only
``build_graph`` makes an adjacency.
Communities are the maximal cliques of that graph, enumerated with
Bron-Kerbosch pivoting, so communities may overlap. The search runs
over twin classes, users with equal closed neighbourhoods, which always
share their cliques: 1,500 users with identical interests are one class
and one search step. Each community's directory keeps the categories
whose score, the product of a-priori category informativeness and the
fraction of the community's hits falling inside the category's subtree,
clears theta, plus all their ancestors so the result stays a rooted tree,
stored in tree order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .classify import UsageVector
from .taxonomy import ROOT, Taxonomy, ancestors, depth, parent, preorder

DEFAULT_TAU = 0.5
DEFAULT_THETA = 0.1
DEFAULT_MIN_SIZE = 2
CLIQUE_CAP = 1_000_000


class ExplosionGuardError(RuntimeError):
    """More maximal cliques than ``CLIQUE_CAP``, which library callers may reassign."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} maximal cliques; raise tau")


@dataclass(frozen=True)
class SimilarityGraph:
    """Each user's neighbours, users in sorted order."""

    adjacency: dict[str, set[str]]

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
    """Ancestor-closed scored category subset selected for one community, in tree order."""

    community: Community
    selected: dict[str, float]
    theta: float


def threshold_join(weights: Mapping[str, Mapping[object, int]],
                   links: Callable[[int, int, int], bool]) -> Iterator[tuple[str, str]]:
    """Each id pair ``(a, b)``, ``a < b``, that the caller's rule links, once.

    Each item is a {key: int >= 0} map. An inverted-index join: items are
    visited in sorted-id order, and each one adds up its dot product with the
    earlier items from its keys' {id: weight} postings, then adds itself to
    them. A pair is yielded when ``links(dot, |a|², |b|²)`` holds, so the
    cost grows with the posting entries scanned, not with all n(n-1)/2
    pairs, when keys are sparse. Pairs that share no key are never tested
    nor yielded: a caller whose rule links them states it.
    """
    # Dict postings, not lists of (id, weight) tuples: an entry is no object
    # the garbage collector must track, so a large heap is not rescanned.
    index: dict[object, dict[str, int]] = {}
    norms: dict[str, int] = {}
    for b in sorted(weights):
        dots: dict[str, int] = {}
        for key, w in weights[b].items():
            posting = index.setdefault(key, {})
            for a, v in posting.items():
                dots[a] = dots.get(a, 0) + v * w
            posting[b] = w
        nb = norms[b] = sum(w * w for w in weights[b].values())
        for a, dot in dots.items():
            if links(dot, norms[a], nb):
                yield a, b


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
    adjacency: dict[str, set[str]] = {u: set() for u in sorted(counts)}
    if tau == 0:  # no count is negative, so no cosine is
        everyone = set(counts)
        return SimilarityGraph({u: everyone - {u} for u in adjacency})
    # cos >= tau  <=>  dot > 0 and dot² · den >= num · |a|² · |b|², num/den = tau².
    exact = Fraction(str(tau))
    num, den = exact.numerator ** 2, exact.denominator ** 2
    for a, b in threshold_join(
            counts, lambda dot, na, nb: dot > 0 and dot * dot * den >= num * na * nb):
        adjacency[a].add(b)
        adjacency[b].add(a)
    return SimilarityGraph(adjacency)


def _twin_classes(adj: Mapping[str, set[str]]) -> dict[str, tuple[str, ...]]:
    """Vertices grouped by equal closed neighbourhoods (``adj[v] | {v}``),
    keyed by each class's first vertex in ``adj`` order.

    Vertices are bucketed by degree and by the hash of their closed
    neighbourhood, which is built for one vertex at a time and dropped, so
    the grouping never holds a copy of every neighbourhood (quadratic on a
    dense graph). A vertex joins a class in its bucket only once its
    neighbourhood is checked equal to the class's. The adjacency must be
    symmetric and loop-free, as ``build_graph``'s is.
    """
    classes: dict[str, list[str]] = {}
    buckets: dict[tuple[int, int], list[str]] = {}
    for v, nv in adj.items():
        reps = buckets.setdefault((len(nv), hash(frozenset(nv | {v}))), [])
        # Equal degrees, and r is v's only neighbour outside adj[r]: N[v] == N[r].
        rep = next((r for r in reps if r in nv and nv - adj[r] == {r}), None)
        if rep is None:
            reps.append(v)
            classes[v] = [v]
        else:
            classes[rep].append(v)
    return {rep: tuple(twins) for rep, twins in classes.items()}


def find_communities(graph: SimilarityGraph, min_size: int = DEFAULT_MIN_SIZE,
                     keep_singletons: bool = False) -> list[tuple[str, ...]]:
    """All maximal cliques of size >= min_size, as sorted member tuples.

    Users with equal closed neighbourhoods (twins) lie in the same maximal
    cliques, so the search runs over one representative per twin class and
    expands each clique it finds into the classes' members; the maximal
    cliques of this quotient graph are the graph's, one for one. A clique's
    size is its expanded size: cliques of one user are included when
    ``keep_singletons`` is set even if min_size is larger, and an isolated
    class of two or more users is a clique of that size, not a singleton.
    Output is canonically ordered, so it is independent of input and search
    order. Raises ExplosionGuardError once more than ``CLIQUE_CAP`` maximal
    cliques exist.
    """
    adj = graph.adjacency
    members = _twin_classes(adj)
    found = 0
    kept: list[tuple[str, ...]] = []
    # Bron-Kerbosch on an explicit stack of (R, P, X), free of the recursion limit.
    # P and X only ever hold representatives, so the search reads adj only
    # through them and runs on the quotient graph without building it; R
    # holds the members of the classes it has taken.
    stack = [((), set(members), set())] if members else []
    while stack:
        r, p, x = stack.pop()
        # Tomita's pivot maximizes |adj[u] & p|, but any pivot in P | X is
        # correct, so the scan stops at one that leaves at most one branch.
        pivot, most = None, -1
        for u in itertools.chain(x, p):
            n = len(adj[u] & p)
            if n > most:
                pivot, most = u, n
                if n >= len(p) - 1:
                    break
        for v in p - adj[pivot]:
            rv, pv, xv = r + members[v], p & adj[v], x & adj[v]
            p.remove(v)
            x.add(v)
            if pv:
                stack.append((rv, pv, xv))
            elif not xv:
                found += 1
                if found > CLIQUE_CAP:
                    raise ExplosionGuardError(CLIQUE_CAP)
                if len(rv) >= min_size or (keep_singletons and len(rv) == 1):
                    kept.append(tuple(sorted(rv)))
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
    selection means no category reached theta. The selection is in tree
    order (``taxonomy.preorder``).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1]: {theta!r}")
    hits: Counter = Counter()
    for cat, n in community.profile.items():
        for path in (*ancestors(cat), cat):
            hits[path] += n
    scores = {path: tax[path].weight * (hits[path] / (community.total or 1))
              for path in (tax if theta == 0 else hits) if path in tax}
    selected: dict[str, float] = {}
    for path, score in scores.items():
        if score >= theta:
            selected[path] = score
            for anc in ancestors(path):
                selected.setdefault(anc, scores[anc])
    return CommunityDirectory(community, {p: selected[p] for p in preorder(selected)}, theta)


def directory_text(cdir: CommunityDirectory, tax: Taxonomy) -> str:
    """Indented deterministic text tree, one ``path  score`` line per category.
    ``tax`` is unread, since the selection is in tree order; callers pass it."""
    return "".join(f"{'  ' * depth(path)}{path}  {score:.6f}\n"
                   for path, score in cdir.selected.items())


def directory_doc(cdir: CommunityDirectory, tax: Taxonomy) -> dict:
    """JSON-ready document: members, theta, and the scored category tree.
    ``tax`` is unread, since the selection is in tree order; callers pass it."""
    nodes: dict[str, dict] = {}
    for path, score in cdir.selected.items():
        node = nodes[path] = {"path": path, "score": score, "children": []}
        if path != ROOT:
            nodes[parent(path)]["children"].append(node)
    return {
        "members": list(cdir.community.members),
        "theta": cdir.theta,
        "total_hits": cdir.community.total,
        "tree": nodes.get(ROOT),
    }
