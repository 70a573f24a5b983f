import inspect
import itertools
import math
import pathlib
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from commdir import community as community_mod
from commdir.artificial import SiteProfile, cluster_sites
from commdir.classify import UNSPECIFIED, UsageVector, build_usage_vectors
from commdir.community import (
    Community,
    ExplosionGuardError,
    SimilarityGraph,
    build_community_directory,
    build_graph,
    community_profile,
    directory_doc,
    directory_text,
    find_communities,
    threshold_join,
)
from commdir.metrics import report_json
from commdir.taxonomy import ROOT, ancestors, make_taxonomy
from test_artificial import jaccard_links, jaccard_reaches, union_find_clusters
from test_taxonomy import children_map

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402


def vec(user, counts):
    return UsageVector(user, dict(counts), sum(counts.values()))


def cosine_links(tau):
    """The rule cos >= tau from a dot product and two squared norms, in exact
    arithmetic, tau read as the decimal it prints as (0.4 is 2/5): cos² is
    dot² / (|a|² |b|²) for dot > 0, and a pair with dot 0 (orthogonal, or a
    zero vector) has cosine 0."""
    exact = Fraction(str(tau)) ** 2
    return lambda dot, na, nb: Fraction(dot * dot, na * nb) >= exact if dot else tau == 0


def cosine_reaches(u, v, tau):
    """cos(u, v) >= tau, unspecified coordinate included: the pairwise
    reference of the user-graph oracles."""
    a, b = u.counts, v.counts
    return cosine_links(tau)(sum(n * b.get(k, 0) for k, n in a.items()),
                             sum(n * n for n in a.values()), sum(n * n for n in b.values()))


def graph_from_edges(vertices, edges):
    adj = {v: set() for v in sorted(vertices)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return SimilarityGraph({v: frozenset(n) for v, n in adj.items()})


def brute_force_maximal_cliques(graph):
    """Oracle: enumerate all subsets, keep cliques with no clique superset."""
    vs = sorted(graph.vertices)
    adj = graph.adjacency
    cliques = []
    for r in range(1, len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                cliques.append(set(combo))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def test_similarity_identical_is_one():
    u = vec("u", {"A": 3, "B": 4})
    assert cosine_reaches(u, vec("v", {"A": 3, "B": 4}), 1.0)
    assert cosine_reaches(u, vec("w", {"A": 6, "B": 8}), 1.0)  # parallel


def test_similarity_disjoint_is_zero():
    u, v = vec("u", {"A": 1}), vec("v", {"B": 1})
    assert cosine_reaches(u, v, 0.0)
    assert not cosine_reaches(u, v, 5e-324)  # the least tau above 0


def test_similarity_half_overlap():
    # cos = 2 ** -0.5 = 0.70710678118654752..., between these two decimals.
    u, v = vec("u", {"A": 1, "B": 1}), vec("v", {"A": 1})
    assert cosine_reaches(u, v, 0.7071067811865475)
    assert not cosine_reaches(u, v, 0.7071067811865476)


def test_similarity_counts_unspecified_coordinate():
    u = vec("u", {UNSPECIFIED: 1})
    assert cosine_reaches(u, vec("v", {UNSPECIFIED: 5}), 1.0)


def test_build_graph_tau_zero_is_complete():
    vectors = [vec("a", {"A": 1}), vec("b", {"B": 1}), vec("c", {"C": 1})]
    graph = build_graph(vectors, 0.0)
    assert graph.adjacency == {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}


def test_build_graph_tau_one_distinct_directions_empty():
    vectors = [vec("a", {"A": 2, "B": 1}), vec("b", {"A": 1, "B": 2}),
               vec("c", {"C": 1})]
    assert build_graph(vectors, 1.0).adjacency == {"a": set(), "b": set(), "c": set()}


def test_build_graph_mid_threshold():
    a = vec("a", {"A": 1, "B": 1})
    b = vec("b", {"A": 1, "B": 1})
    c = vec("c", {"A": 1})
    # sim(a,b)=1.0, sim(a,c)=sim(b,c)=0.7071..., all >= 0.5
    graph = build_graph([a, b, c], 0.5)
    assert graph.adjacency == {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    graph = build_graph([a, b, c], 0.8)
    assert graph.adjacency == {"a": {"b"}, "b": {"a"}, "c": set()}


def test_cosine_ties_decide_as_the_exact_oracle():
    # u3 = 3·u1 and u4 = 3·u2, so the four cross pairs have one cosine,
    # 17 / sqrt(77 · 254), which lies between the two taus; a float quotient
    # rounds it to one side for some pairs and to the other for the rest.
    counts = {"u1": {"A": 8, "B": 3, "C": 2}, "u2": {"A": 1, "B": 3, "D": 12, "E": 10}}
    counts["u3"] = {c: 3 * n for c, n in counts["u1"].items()}
    counts["u4"] = {c: 3 * n for c, n in counts["u2"].items()}
    vectors = [vec(u, c) for u, c in counts.items()]
    everyone = set(counts)
    for text, want in (("0.12155888293603437", {u: everyone - {u} for u in counts}),
                       ("0.12155888293603438", {"u1": {"u3"}, "u2": {"u4"},
                                                "u3": {"u1"}, "u4": {"u2"}})):
        assert build_graph(vectors, float(text)).adjacency == want
        assert check.tau_graph(counts, Fraction(text)) == want


def test_tau_is_read_as_the_decimal_it_prints_as():
    # cos((1,0,0,0), (2,4,2,1)) = 2/5 exactly. The float 0.4 is a little
    # above 2/5, so reading its binary value would unlink the pair.
    counts = {"a": {"A": 1}, "b": {"A": 2, "B": 4, "C": 2, "D": 1}}
    linked = {"a": {"b"}, "b": {"a"}}
    assert build_graph([vec(u, c) for u, c in counts.items()], 0.4).adjacency == linked
    assert check.tau_graph(counts, Fraction("0.4")) == linked
    assert check.tau_graph(counts, Fraction(0.4)) == {"a": set(), "b": set()}


def test_build_graph_is_scale_invariant_at_a_pairs_own_score():
    # tau is set to the float quotient of each pair's cosine, the value that
    # a float rule compares nearest to a tie; the scaled copies must decide
    # as the originals do, and all must agree with the exact oracle.
    rng = random.Random(65)
    cats = [f"Top/C{i}" for i in range(5)]
    decided = Counter()
    for _ in range(400):
        u, v = ({c: rng.randint(1, 30) for c in rng.sample(cats, rng.randint(1, 5))}
                for _ in range(2))
        dot = sum(n * v.get(c, 0) for c, n in u.items())
        if not dot:
            continue
        k = rng.randint(2, 9)
        counts = {"u": u, "v": v, "ku": {c: k * n for c, n in u.items()},
                  "kv": {c: k * n for c, n in v.items()}}
        tau = min(1.0, dot / math.sqrt(sum(n * n for n in u.values()) *
                                       sum(n * n for n in v.values())))
        adj = build_graph([vec(w, c) for w, c in counts.items()], tau).adjacency
        assert adj == check.tau_graph(counts, Fraction(str(tau)))
        cross = {"v" in adj["u"], "kv" in adj["ku"], "kv" in adj["u"], "v" in adj["ku"]}
        assert len(cross) == 1
        decided[cross.pop()] += 1
    assert decided[True] > 50 and decided[False] > 50


def test_triangle_is_single_community():
    g = graph_from_edges("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert find_communities(g) == [("a", "b", "c")]


def test_path_gives_overlapping_pairs():
    g = graph_from_edges("abc", [("a", "b"), ("b", "c")])
    assert find_communities(g) == [("a", "b"), ("b", "c")]


def test_isolated_vertices_need_keep_singletons():
    g = graph_from_edges("abc", [])
    assert find_communities(g, min_size=2) == []
    assert find_communities(g, min_size=2, keep_singletons=True) == \
        [("a",), ("b",), ("c",)]


def test_min_size_filters_small_cliques():
    g = graph_from_edges("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert find_communities(g, min_size=3) == [("a", "b", "c")]


def test_empty_graph_no_communities():
    g = SimilarityGraph({})
    assert find_communities(g) == []


def test_explosion_guard_trips(monkeypatch):
    # Moon-Moser graph on 9 vertices (3 groups, edges across groups): 27 cliques
    vertices = [f"v{i}" for i in range(9)]
    edges = [(a, b) for a, b in itertools.combinations(vertices, 2)
             if int(a[1]) % 3 != int(b[1]) % 3]
    g = graph_from_edges(vertices, edges)
    monkeypatch.setattr(community_mod, "CLIQUE_CAP", 10)
    with pytest.raises(ExplosionGuardError, match="more than 10 maximal cliques"):
        find_communities(g, min_size=1)
    monkeypatch.setattr(community_mod, "CLIQUE_CAP", 27)
    assert len(find_communities(g, min_size=1)) == 27


def test_large_clique_search_is_not_bounded_by_recursion_limit():
    vertices = tuple(f"v{i:03d}" for i in range(400))
    everyone = frozenset(vertices)
    g = SimilarityGraph({v: everyone - {v} for v in vertices})
    limit = sys.getrecursionlimit()
    # Far less headroom than one frame per clique member would need.
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        found = find_communities(g)
    finally:
        sys.setrecursionlimit(limit)
    assert found == [vertices]


def test_cliques_match_brute_force_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 8)
        vertices = [f"v{i}" for i in range(n)]
        p = rng.choice([0.15, 0.4, 0.7])
        edges = [e for e in itertools.combinations(vertices, 2) if rng.random() < p]
        g = graph_from_edges(vertices, edges)
        assert find_communities(g, min_size=1) == brute_force_maximal_cliques(g)


def max_pivot_cliques(graph):
    """The frozenset search that find_communities replaced, kept as its oracle:
    Tomita's maximum pivot over all of P | X; every maximal clique is stored."""
    adj = graph.adjacency
    found = []

    def frame(r, p, x):
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        return r, p, x, iter(sorted(p - adj[pivot]))

    stack = [frame(frozenset(), set(graph.vertices), set())] if graph.vertices else []
    while stack:
        r, p, x, todo = stack[-1]
        for v in todo:
            rv, pv, xv = r | {v}, p & adj[v], x & adj[v]
            p.remove(v)
            x.add(v)
            if pv or xv:
                stack.append(frame(rv, pv, xv))
                break
            found.append(rv)
        else:
            stack.pop()
    return found


def assert_matches_max_pivot_search(g):
    found = max_pivot_cliques(g)
    for min_size in (1, 2, 3):
        for keep_singletons in (False, True):
            kept = [c for c in found
                    if len(c) >= min_size or (keep_singletons and len(c) == 1)]
            assert find_communities(g, min_size, keep_singletons) == \
                sorted(tuple(sorted(c)) for c in kept)


def random_edges(rng, vertices):
    p = rng.choice([0.05, 0.2, 0.5, 0.7])
    return [e for e in itertools.combinations(vertices, 2) if rng.random() < p]


def test_cliques_match_max_pivot_search_on_random_graphs():
    rng = random.Random(77)
    for _ in range(300):
        vertices = [f"v{i:02d}" for i in range(rng.randint(0, 40))]
        assert_matches_max_pivot_search(graph_from_edges(vertices, random_edges(rng, vertices)))


def blow_up(vertices, edges, twins):
    """Each vertex v becomes a clique of ``twins[v]`` twins, joined to the
    twins of v's neighbours: (vertices, edges, the twins of each vertex)."""
    of = {v: [f"{v}.{k}" for k in range(twins[v])] for v in vertices}
    inside = [e for v in vertices for e in itertools.combinations(of[v], 2)]
    across = [(a, b) for u, v in edges for a in of[u] for b in of[v]]
    return [t for v in vertices for t in of[v]], inside + across, of


def test_cliques_match_max_pivot_search_on_blown_up_random_graphs():
    # Twins share every maximal clique, so the search over twin classes must
    # find each clique whole, with its expanded size for min_size and
    # keep_singletons; a maximal clique of the base graph becomes one.
    rng = random.Random(2026)
    for _ in range(150):
        vertices = [f"v{i:02d}" for i in range(rng.randint(0, 14))]
        edges = random_edges(rng, vertices)
        blown, blown_edges, of = blow_up(vertices, edges,
                                         {v: rng.randint(1, 4) for v in vertices})
        g = graph_from_edges(blown, blown_edges)
        assert_matches_max_pivot_search(g)
        base = find_communities(graph_from_edges(vertices, edges), min_size=1)
        assert find_communities(g, min_size=1) == \
            sorted(tuple(sorted(t for v in c for t in of[v])) for c in base)


class Colliding(str):
    """A vertex name whose hash is every other's: twin grouping must not
    take a shared hash for a shared neighbourhood."""

    def __hash__(self):
        return 0


def test_twin_classes_are_checked_not_assumed_from_hashes():
    rng = random.Random(5)
    for _ in range(60):
        vertices = [Colliding(f"v{i:02d}") for i in range(rng.randint(0, 12))]
        edges = random_edges(rng, vertices)
        blown, blown_edges, _ = blow_up(vertices, edges, {v: rng.randint(1, 3) for v in vertices})
        for vs, es in ((vertices, edges), (list(map(Colliding, blown)),
                                           [tuple(map(Colliding, e)) for e in blown_edges])):
            assert_matches_max_pivot_search(graph_from_edges(vs, es))


def test_isolated_twin_class_is_a_community_not_a_singleton():
    # a and b are twins with no other neighbour: one class of two. c is alone.
    g = graph_from_edges("abc", [("a", "b")])
    assert find_communities(g) == [("a", "b")]
    assert find_communities(g, min_size=3, keep_singletons=True) == [("c",)]
    g = graph_from_edges("abcd", [("a", "b"), ("a", "c"), ("b", "c")])
    assert find_communities(g, min_size=3) == [("a", "b", "c")]
    assert find_communities(g, min_size=4, keep_singletons=True) == [("d",)]


def moon_moser(groups):
    """Complete multipartite graph of ``groups`` groups of 3: 3**groups maximal cliques."""
    vertices = [f"g{i}-{j}" for i in range(groups) for j in range(3)]
    edges = [(a, b) for a, b in itertools.combinations(vertices, 2)
             if a.split("-")[0] != b.split("-")[0]]
    return vertices, edges


def test_clique_guard_trips_in_bounded_memory(monkeypatch):
    # Moon-Moser graph, 9 groups of 3: 3**9 = 19,683 maximal cliques of 9.
    g = graph_from_edges(*moon_moser(9))
    monkeypatch.setattr(community_mod, "CLIQUE_CAP", 5000)
    for min_size, keep_singletons in ((1, False), (2, True), (10, False)):
        tracemalloc.start()
        try:
            with pytest.raises(ExplosionGuardError):
                find_communities(g, min_size, keep_singletons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5,000 stored cliques as sorted tuples take about 0.6 MB; as
        # frozensets they took 3.7 MB.
        assert peak < 2_000_000
    monkeypatch.setattr(community_mod, "CLIQUE_CAP", 3 ** 9)
    assert len(find_communities(g)) == 3 ** 9


@pytest.mark.parametrize("groups", [3, 9])
def test_clique_guard_trips_at_the_same_cap_on_a_blown_up_graph(groups, monkeypatch):
    # Twin classes are counted once, so the guard counts maximal cliques,
    # not their members.
    vertices, edges = moon_moser(groups)
    rng = random.Random(groups)
    blown, blown_edges, _ = blow_up(vertices, edges, {v: rng.randint(1, 4) for v in vertices})
    assert len(blown) > len(vertices)
    for g in (graph_from_edges(vertices, edges), graph_from_edges(blown, blown_edges)):
        monkeypatch.setattr(community_mod, "CLIQUE_CAP", 3 ** groups - 1)
        with pytest.raises(ExplosionGuardError):
            find_communities(g, min_size=1)
        monkeypatch.setattr(community_mod, "CLIQUE_CAP", 3 ** groups)
        assert len(find_communities(g, min_size=1)) == 3 ** groups


def test_identical_users_form_one_community_quickly():
    # 1,500 users with one interest: one clique of 1,500. A pivot scan over
    # all of P at every level made this cubic (K_900 took about 9 s).
    vertices = tuple(f"u{i:04d}" for i in range(1500))
    everyone = frozenset(vertices)
    g = SimilarityGraph({v: everyone - {v} for v in vertices})
    start = time.perf_counter()
    found = find_communities(g)
    assert time.perf_counter() - start < 10.0
    assert found == [vertices]


def test_deep_clique_search_holds_one_pending_frame():
    # K_1500: a search that keeps one P set per clique level holds about
    # n**2 / 2 members at once (78 MB); one pending frame holds n.
    vertices = tuple(f"u{i:04d}" for i in range(1500))
    everyone = frozenset(vertices)
    g = SimilarityGraph({v: set(everyone - {v}) for v in vertices})
    tracemalloc.start()
    try:
        found = find_communities(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [vertices]
    assert peak <= 5_000_000


def test_build_graph_matches_brute_force_similarity():
    rng = random.Random(12)
    cats = ["Top/A", "Top/B", "Top/C", "Top/D", UNSPECIFIED]
    for _ in range(60):
        vectors = [vec(f"u{i}", {c: rng.randint(1, 4) for c in rng.sample(cats, rng.randint(0, 3))})
                   for i in range(rng.randint(0, 12))]
        for tau in (0.0, rng.random(), 0.5, 1.0):
            adj = {v.user: set() for v in vectors}
            for a, b in itertools.combinations(vectors, 2):
                if cosine_reaches(a, b, tau):
                    adj[a.user].add(b.user)
                    adj[b.user].add(a.user)
            graph = build_graph(rng.sample(vectors, len(vectors)), tau)
            assert graph.vertices == tuple(sorted(adj)) == tuple(graph.adjacency)
            assert graph.adjacency == adj


def all_pairs_join(items, reaches, threshold):
    """The all-pairs loop that threshold_join replaced, kept as its oracle."""
    pairs = sorted(items.items())
    adj = {k: set() for k, _ in pairs}
    for i, (a, x) in enumerate(pairs):
        for b, y in pairs[i + 1:]:
            if reaches(x, y, threshold):
                adj[a].add(b)
                adj[b].add(a)
    return {k: frozenset(n) for k, n in adj.items()}


def pair_adjacency(ids, pairs):
    """The adjacency of a join's pairs, once each is checked to come once with a < b."""
    pairs = list(pairs)
    assert len(set(pairs)) == len(pairs)
    assert all(a < b for a, b in pairs)
    adj = {k: set() for k in sorted(ids)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def assert_joins_equal(weights, links, items, reaches, threshold):
    got = pair_adjacency(weights, threshold_join(weights, links))
    assert got == all_pairs_join(items, reaches, threshold)


def assert_cosine_joins_equal(vectors, tau):
    assert_joins_equal({u: v.counts for u, v in vectors.items()}, cosine_links(tau),
                       vectors, cosine_reaches, tau)


def shuffled_dict(rng, pairs):
    """Insertion order differs from id order, so the join must sort."""
    pairs = list(pairs)
    return dict(rng.sample(pairs, len(pairs)))


def test_cosine_join_matches_all_pairs_oracle():
    rng = random.Random(61)
    cats = [f"Top/C{i}" for i in range(8)] + [UNSPECIFIED]
    for _ in range(80):
        # empty vectors share no key; they join nothing above tau 0
        vectors = shuffled_dict(rng, (
            (f"u{i}", vec(f"u{i}", {c: rng.randint(1, 5)
                                    for c in rng.sample(cats, rng.randint(0, 3))}))
            for i in range(rng.randint(0, 16))))
        for tau in (0.0, rng.random(), 0.5, 0.8, 1.0):
            # tau 0 links every pair unscored in build_graph, not in the join.
            adjacency = build_graph(vectors.values(), tau).adjacency
            want = all_pairs_join(vectors, cosine_reaches, tau)
            assert list(adjacency) == list(want)
            assert adjacency == want
            if tau > 0:
                assert_cosine_joins_equal(vectors, tau)


def test_jaccard_join_matches_all_pairs_oracle():
    rng = random.Random(62)
    for _ in range(120):
        # empty token sets are frequent and mixed with non-empty ones
        sets = shuffled_dict(rng, (
            (f"s{i}.net", set(rng.sample("abcdefgh", rng.choice([0, 0, 1, 2, 3, 4]))))
            for i in range(rng.randint(0, 16))))
        profiles = [SiteProfile(k, Counter(t), 1) for k, t in sets.items()]
        for sigma in (0.0, rng.random(), 0.5, 1.0, 1.5, 3.0):
            # sigma 0 is one block in cluster_sites, not a join; above it,
            # the join gets cluster_sites' stand-in key for an empty set.
            assert cluster_sites(profiles, sigma) == union_find_clusters(profiles, sigma)
            if sigma > 0:
                assert_joins_equal({k: dict.fromkeys(t or [None], 1) for k, t in sets.items()},
                                   jaccard_links(sigma), sets, jaccard_reaches, sigma)


def test_join_when_every_user_shares_one_category():
    # The degenerate input for the index: every pair shares a key.
    rng = random.Random(63)
    for _ in range(20):
        vectors = {f"u{i}": vec(f"u{i}", {"Top/Hot": rng.randint(1, 3),
                                          f"Top/C{rng.randrange(6)}": rng.randint(1, 9)})
                   for i in range(rng.randint(2, 20))}
        for tau in (0.0, 0.3, 0.6, 0.8, 0.95, 1.0):
            assert_cosine_joins_equal(vectors, tau)


def test_join_scores_only_pairs_that_share_a_key(monkeypatch):
    rng = random.Random(64)
    cats = [f"Top/C{i}" for i in range(120)]
    vectors = {f"u{i:03d}": vec(f"u{i:03d}", {c: rng.randint(1, 4)
                                              for c in rng.sample(cats, rng.randint(1, 3))})
               for i in range(300)}
    counts = {u: v.counts for u, v in vectors.items()}
    calls = 0
    join = community_mod.threshold_join

    def counting_join(weights, links):
        def counting_links(dot, na, nb):
            nonlocal calls
            calls += 1
            return links(dot, na, nb)
        return join(weights, counting_links)

    sharing = sum(1 for u, v in itertools.combinations(vectors.values(), 2)
                  if u.counts.keys() & v.counts.keys())
    got = pair_adjacency(counts, counting_join(counts, cosine_links(0.5)))
    assert got == all_pairs_join(vectors, cosine_reaches, 0.5)
    assert calls == sharing
    assert sharing < 300 * 299 // 2 // 10
    # tau 0 links every pair, so build_graph tests none.
    monkeypatch.setattr(community_mod, "threshold_join", counting_join)
    calls = 0
    assert build_graph(vectors.values(), 0.0).adjacency == \
        all_pairs_join(vectors, cosine_reaches, 0.0)
    assert calls == 0
    assert build_graph(vectors.values(), 0.5).adjacency == got
    assert calls == sharing


def test_build_graph_rejects_negative_counts():
    # A negative count can make a cosine negative, which tau 0 must not link.
    with pytest.raises(ValueError, match="negative count"):
        build_graph([vec("a", {"X": -1}), vec("b", {"X": 1})], 0.0)


@pytest.mark.parametrize("tau", [-0.1, 1.5, float("nan")])
def test_build_graph_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ValueError, match="tau must be in"):
        build_graph([vec("a", {"X": 1})], tau)


def test_build_graph_rejects_duplicate_users():
    with pytest.raises(ValueError, match="duplicate user ids"):
        build_graph([vec("a", {"X": 1}), vec("a", {"Y": 1})])


def test_build_graph_keeps_the_sets_it_joined():
    # 600 users over 7 categories, nearly all pairs above tau: 178,848 edges
    # in sets that take 20 MB. A frozenset copy of each would double the peak.
    rng = random.Random(3)
    cats = [f"Top/C{i}" for i in range(7)]
    vectors = [vec(f"u{i:04d}", {c: rng.randint(1, 9) for c in cats}) for i in range(600)]
    tracemalloc.start()
    try:
        graph = build_graph(vectors, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, graph.adjacency.values())) // 2 > 150_000
    assert peak < 30_000_000


@pytest.mark.parametrize("theta", [-0.1, 1.5, float("nan")])
def test_directory_rejects_theta_outside_unit_interval(theta):
    tax = make_taxonomy({"Top/A": (("a",), None)})
    with pytest.raises(ValueError, match="theta must be in"):
        build_community_directory(tax, Community(("u",), {"Top/A": 1}, 1), theta)


def test_community_profile_sums_members():
    vectors = [vec("a", {"X": 2, UNSPECIFIED: 1}), vec("b", {"X": 1, "Y": 3})]
    com = community_profile(["b", "a"], vectors)
    assert com.members == ("a", "b")
    assert com.profile == {"X": 3, "Y": 3, UNSPECIFIED: 1}
    assert com.total == 7


def full_scores(com, tax):
    """Every category's score: theta 0 selects the whole taxonomy."""
    return build_community_directory(tax, com, 0.0).selected


def test_score_all_hits_full_weight(fixture_taxonomy):
    com = Community(("u",), {"Top/Computers/XML": 5}, 5)
    assert full_scores(com, fixture_taxonomy)["Top/Computers/XML"] == 1.0


def test_score_zero_when_no_subtree_hits(fixture_taxonomy):
    com = Community(("u",), {"Top/Search": 5}, 5)
    assert full_scores(com, fixture_taxonomy)["Top/Computers/XML"] == 0.0


def test_score_half_weight_half_interest(fixture_taxonomy):
    # Top/Search has depth-default weight 0.5; 6 of 12 hits inside
    com = Community(("u",), {"Top/Search": 6, UNSPECIFIED: 6}, 12)
    assert full_scores(com, fixture_taxonomy)["Top/Search"] == 0.25


def test_score_aggregates_subtree(fixture_taxonomy):
    com = Community(("u",), {"Top/Computers/XML": 1, "Top/Computers/HTML": 1}, 2)
    assert full_scores(com, fixture_taxonomy)["Top/Computers"] == \
        pytest.approx(0.5 * 1.0)


def prefix_scan_score(path, community, tax):
    """Reference: weight times the hits of every profile key under path's prefix."""
    hits = sum(n for cat, n in community.profile.items()
               if cat == path or cat.startswith(path + "/"))
    return tax.categories[path].weight * (hits / community.total)


def random_taxonomy_and_community(rng):
    entries = {"Top": ((), rng.choice([None, rng.random()]))}
    for _ in range(rng.randint(1, 15)):
        segments = [f"c{rng.randint(0, 4)}" for _ in range(rng.randint(1, 4))]
        weight = rng.choice([None, rng.random(), 0.0, 1.0])
        entries["/".join(["Top"] + segments)] = ((), weight)
    tax = make_taxonomy(entries)
    # Keys outside the taxonomy: unspecified, unknown children of known
    # categories, look-alike prefixes and other roots.
    keys = sorted(tax) + [UNSPECIFIED, "Top/c1/zz", "Top/c", "Top/c1x",
                              "Topx/c1", "Other/c1", "Top/", "Top//c1"]
    profile = {k: rng.randint(1, 20)
               for k in rng.sample(keys, rng.randint(1, len(keys)))}
    return tax, Community(("u",), profile, sum(profile.values()))


def test_category_scores_match_prefix_scan():
    rng = random.Random(4242)
    for _ in range(300):
        tax, com = random_taxonomy_and_community(rng)
        assert full_scores(com, tax) == \
            {path: prefix_scan_score(path, com, tax) for path in tax}


def full_scan_directory(tax, community, theta):
    """Reference: score every category of the taxonomy, then select from them all."""
    scores = {path: prefix_scan_score(path, community, tax) for path in tax}
    selected = {}
    for path, score in scores.items():
        if score >= theta:
            selected[path] = score
            for anc in ancestors(path):
                selected.setdefault(anc, scores[anc])
    return sorted(selected.items())


def test_directory_matches_full_scan_selection():
    rng = random.Random(2718)
    for _ in range(300):
        tax, com = random_taxonomy_and_community(rng)
        for theta in (0.0, 1e-12, 0.01, rng.uniform(0.0, 0.2), 0.5, 1.0):
            cdir = build_community_directory(tax, com, theta)
            assert list(cdir.selected.items()) == full_scan_directory(tax, com, theta)


def old_directory_text(cdir, tax):
    """The renderers that walked a children map beside Taxonomy.walk, kept as
    oracles: an explicit stack for the text, recursion for the document."""
    selected, kids = cdir.selected, children_map(tax)
    lines, stack = [], [(ROOT, 0)] if selected else []
    while stack:
        path, d = stack.pop()
        lines.append(f"{'  ' * d}{path}  {selected[path]:.6f}")
        stack.extend((c, d + 1) for c in reversed(kids[path]) if c in selected)
    return "\n".join(lines) + ("\n" if lines else "")


def old_directory_tree(cdir, tax):
    selected, kids = cdir.selected, children_map(tax)

    def node(path):
        return {"path": path, "score": selected[path],
                "children": [node(c) for c in kids[path] if c in selected]}

    return node(ROOT) if selected else None


def test_directory_renderings_match_old_renderers():
    rng = random.Random(1973)
    for _ in range(300):
        tax, com = random_taxonomy_and_community(rng)
        for theta in (0.0, 0.01, rng.uniform(0.0, 0.2), 0.5, 1.0):
            cdir = build_community_directory(tax, com, theta)
            assert directory_text(cdir, tax) == old_directory_text(cdir, tax)
            assert report_json(directory_doc(cdir, tax)["tree"]) == \
                report_json(old_directory_tree(cdir, tax))


def test_directory_theta_zero_selects_everything(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile([vectors[0].user], vectors)
    cdir = build_community_directory(fixture_taxonomy, com, 0.0)
    assert set(cdir.selected) == set(fixture_taxonomy)


def test_directory_of_a_community_without_hits_at_theta_zero_is_the_taxonomy(fixture_taxonomy):
    com = community_profile(["u"], [UsageVector("u", {}, 0)])
    cdir = build_community_directory(fixture_taxonomy, com, 0.0)
    assert cdir.selected == dict.fromkeys(sorted(fixture_taxonomy), 0.0)
    assert build_community_directory(fixture_taxonomy, com, 0.1).selected == {}


def test_directory_impossible_theta_is_empty(fixture_taxonomy):
    com = Community(("u",), {"Top/Search": 1}, 1)
    cdir = build_community_directory(fixture_taxonomy, com, 1.0)
    assert cdir.selected == {}


def test_sample_user_directory_at_theta_010(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile(["frank@127.0.0.1"], vectors)
    cdir = build_community_directory(fixture_taxonomy, com, 0.10)
    # hand-computed: profile {HTML:2, XML:3, Search:3, Software:3, unspec:2}/13
    expected = {
        "Top": 0.0,                      # ancestor, weight 0
        "Top/Computers": 0.5 * 5 / 13,
        "Top/Computers/HTML": 2 / 13,
        "Top/Computers/XML": 3 / 13,
        "Top/Search": 0.5 * 3 / 13,
        "Top/Software": 0.5 * 3 / 13,
    }
    assert set(cdir.selected) == set(expected)
    for path, score in expected.items():
        assert cdir.selected[path] == pytest.approx(score, abs=1e-12)
    assert {"Top/Computers/HTML", "Top/Computers/XML"} <= set(cdir.selected)


def test_directory_is_ancestor_closed_and_monotone(fixture_taxonomy):
    rng = random.Random(77)
    paths = list(fixture_taxonomy)
    for _ in range(30):
        profile = {p: rng.randint(1, 9) for p in rng.sample(paths, rng.randint(1, len(paths)))}
        if rng.random() < 0.5:
            profile[UNSPECIFIED] = rng.randint(1, 5)
        com = Community(("u",), profile, sum(profile.values()))
        t1, t2 = sorted((rng.random(), rng.random()))
        d1 = build_community_directory(fixture_taxonomy, com, t1)
        d2 = build_community_directory(fixture_taxonomy, com, t2)
        assert set(d2.selected) <= set(d1.selected)
        for d in (d1, d2):
            for path in d.selected:
                assert all(a in d.selected for a in ancestors(path))


def test_scores_invariant_under_profile_scaling(fixture_taxonomy):
    profile = {"Top/Computers/XML": 3, "Top/Search": 2, UNSPECIFIED: 1}
    com = Community(("u",), profile, 6)
    scaled = Community(("u",), {k: 7 * v for k, v in profile.items()}, 42)
    scores = full_scores(com, fixture_taxonomy)
    scaled_scores = full_scores(scaled, fixture_taxonomy)
    assert scores.keys() == scaled_scores.keys() == set(fixture_taxonomy)
    for path in fixture_taxonomy:
        assert scores[path] == pytest.approx(scaled_scores[path], abs=1e-12)


def test_directory_renderings_deterministic(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile(["frank@127.0.0.1"], vectors)
    cdir = build_community_directory(fixture_taxonomy, com, 0.10)
    text = directory_text(cdir, fixture_taxonomy)
    assert text == directory_text(cdir, fixture_taxonomy)
    assert text.startswith("Top  0.000000\n")
    assert "    Top/Computers/XML  0.230769" in text
    doc = directory_doc(cdir, fixture_taxonomy)
    assert doc["tree"]["path"] == "Top"
    assert doc["members"] == ["frank@127.0.0.1"]
    child_paths = [c["path"] for c in doc["tree"]["children"]]
    assert child_paths == sorted(child_paths)


def test_empty_directory_renders_empty(fixture_taxonomy):
    com = Community(("u",), {UNSPECIFIED: 1}, 1)
    cdir = build_community_directory(fixture_taxonomy, com, 0.5)
    assert directory_text(cdir, fixture_taxonomy) == ""
    assert directory_doc(cdir, fixture_taxonomy)["tree"] is None


def test_input_order_does_not_change_communities():
    rng = random.Random(11)
    vectors = [vec(f"u{i}", {f"C{i % 3}": rng.randint(1, 5)}) for i in range(9)]
    base_graph = build_graph(vectors, 0.5)
    base = find_communities(base_graph)
    for _ in range(5):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert find_communities(build_graph(shuffled, 0.5)) == base
