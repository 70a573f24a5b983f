import random
from collections import Counter
from fractions import Fraction

import pytest

from commdir import artificial
from commdir.artificial import (
    SiteProfile,
    _top_tokens,
    build_artificial_directory,
    cluster_sites,
    profile_sites,
)
from commdir.community import threshold_join
from commdir.taxonomy import ROOT, ancestors, depth, make_taxonomy
from commdir.urls import extract_page_ref, tokenize
from reference import similar_sites


def jaccard(a, b):
    """Exact Jaccard similarity of two sets, two empty sets counting as identical."""
    return Fraction(len(a & b), len(a | b)) if a or b else Fraction(1)


def jaccard_reaches(a, b, sigma):
    """jaccard(a, b) >= sigma, sigma read as the decimal it prints as (0.4 is
    2/5): the pairwise reference of the site-clustering oracles."""
    return jaccard(a, b) >= Fraction(str(sigma))


def jaccard_links(sigma):
    """The join rule of ``jaccard_reaches``, from an intersection size and two set sizes."""
    exact = Fraction(str(sigma))
    return lambda inter, na, nb: Fraction(inter, na + nb - inter) >= exact


def profile(site, tokens, hits=1):
    return SiteProfile(site, Counter(dict.fromkeys(tokens, 1)), hits)


def test_profile_sites_on_sample(sample_records):
    refs = [extract_page_ref(r.resource) for r in sample_records]
    profiles = profile_sites(refs)
    assert {(p.site, p.hits) for p in profiles} == {
        ("www.microsoft.com", 3),
        ("www.google.co.in", 3),
        ("www.google.com", 1),
        ("www.w3schools.com", 5),
    }
    local = [r for r in refs if r.site is None]
    assert len(local) == 1


def test_profile_sites_all_local_is_empty():
    refs = [extract_page_ref("/apache_pb.gif"), extract_page_ref("/cgi_bin/x")]
    assert profile_sites(refs) == []


def per_ref_profile_sites(refs):
    """Reference: tokenize every reference on its own."""
    tokens, hits = {}, Counter()
    for ref in refs:
        if ref.site is None:
            continue
        hits[ref.site] += 1
        tokens.setdefault(ref.site, Counter()).update(tokenize(ref))
    return [SiteProfile(site, tokens[site], hits[site]) for site in sorted(hits)]


def test_profile_sites_equal_per_ref_reference():
    rng = random.Random(11)
    resources = [f"/www.s{rng.randrange(8)}.com/{rng.choice(['a', 'b/c', 'news/b'])}"
                 f"/p{rng.randrange(5)}.html" for _ in range(40)]
    resources += ["/local/x.html", "/", "/www.s1.com/", "/www.s2.com/a/a/a.a?x=1"]
    for _ in range(50):
        refs = [extract_page_ref(rng.choice(resources)) for _ in range(rng.randrange(0, 200))]
        assert profile_sites(refs) == per_ref_profile_sites(refs)


def test_profile_sites_merges_resources_that_differ_in_query():
    refs = [extract_page_ref("/www.a.com/x.html?1"), extract_page_ref("/www.a.com/x.html?2")]
    assert profile_sites(refs) == per_ref_profile_sites(refs) == \
        [SiteProfile("www.a.com", Counter({"a": 2, "x": 2}), 2)]


def test_profile_sites_accumulates_hits():
    refs = [extract_page_ref(f"/www.one.com/p{i}.html") for i in range(4)]
    profiles = profile_sites(refs)
    assert len(profiles) == 1
    assert profiles[0].hits == 4
    assert profiles[0].tokens["one"] == 4


def test_jaccard_basics():
    assert jaccard(set(), set()) == 1
    assert jaccard({"a"}, set()) == 0
    assert jaccard({"a", "b"}, {"b", "c"}) == Fraction(1, 3)


def test_sigma_zero_merges_everything(monkeypatch):
    # Single linkage at sigma 0 is one block, so no pair is joined.
    joins = []

    def counting_join(*args):
        joins.append(args)
        return threshold_join(*args)

    monkeypatch.setattr(artificial, "threshold_join", counting_join)
    profiles = [profile("a.com", "xy"), profile("b.com", "pq"), profile("c.com", "")]
    assert cluster_sites(profiles, 0.5) == [("a.com",), ("b.com",), ("c.com",)]
    assert len(joins) == 1
    assert cluster_sites(profiles, 0.0) == [("a.com", "b.com", "c.com")]
    assert cluster_sites([], 0.0) == []
    assert len(joins) == 1


def test_sigma_above_one_keeps_singletons():
    profiles = [profile("a.com", "xy"), profile("b.com", "xy")]
    assert cluster_sites(profiles, 1.0 + 1e-9) == [("a.com",), ("b.com",)]


@pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
def test_sigma_must_be_a_number_at_least_zero(sigma):
    # Two sites sharing a token: a NaN or infinite sigma once gave singletons,
    # not an error.
    profiles = [profile("a.com", "xy"), profile("b.com", "xz")]
    assert cluster_sites(profiles, 0.1) == [("a.com", "b.com")]
    with pytest.raises(ValueError, match="sigma"):
        cluster_sites(profiles, sigma)


def test_jaccard_threshold_example():
    profiles = [profile("a", "xy"), profile("b", "xyz"), profile("c", "q")]
    # J(a,b) = 2/3 >= 0.5; c shares nothing
    assert cluster_sites(profiles, 0.5) == [("a", "b"), ("c",)]


def test_jaccard_ties_decide_as_the_reference_oracle():
    # |a ∩ b| = 5, |a| = 5 and |b| = 6: Jaccard 5/6, which lies between the
    # two floats nearest to it. A float quotient rounds it up to the larger.
    a, b = set("pqrst"), set("pqrstu")
    profiles = [profile("a.com", a), profile("b.com", b)]
    for text, want in (("0.8333333333333334", [("a.com",), ("b.com",)]),
                       ("0.8333333333333333", [("a.com", "b.com")])):
        assert cluster_sites(profiles, float(text)) == want
        assert similar_sites(a, b, Fraction(text)) == (len(want) == 1)


def test_single_linkage_chains():
    # a~b and b~c reach sigma, a~c does not: single linkage still joins all three
    profiles = [profile("a", "wx"), profile("b", "xy"), profile("c", "yz")]
    sigma = 1 / 3
    assert jaccard({"w", "x"}, {"y", "z"}) == 0.0
    assert cluster_sites(profiles, sigma) == [("a", "b", "c")]


def test_partition_covers_all_sites():
    rng = random.Random(3)
    profiles = [profile(f"s{i}.net", rng.sample("abcdefgh", rng.randint(1, 4)))
                for i in range(12)]
    parts = cluster_sites(profiles, 0.4)
    flat = [s for block in parts for s in block]
    assert sorted(flat) == sorted(p.site for p in profiles)
    assert len(flat) == len(set(flat))


def test_higher_sigma_refines_partition():
    rng = random.Random(17)
    for _ in range(25):
        profiles = [profile(f"s{i}.net", rng.sample("abcdefgh", rng.randint(1, 5)))
                    for i in range(rng.randint(2, 10))]
        s1, s2 = sorted((rng.random(), rng.random()))
        coarse = cluster_sites(profiles, s1)
        fine = cluster_sites(profiles, s2)
        block_of = {site: i for i, block in enumerate(coarse) for site in block}
        for block in fine:
            assert len({block_of[s] for s in block}) == 1


def union_find_clusters(profiles, sigma):
    """Reference: single linkage by union-find over pairs merged in similarity order."""
    token_sets = {p.site: set(p.tokens) for p in profiles}
    sites = sorted(token_sets)
    parent = {s: s for s in sites}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    mergeable = sorted((-jaccard(token_sets[a], token_sets[b]), a, b)
                       for i, a in enumerate(sites) for b in sites[i + 1:]
                       if jaccard_reaches(token_sets[a], token_sets[b], sigma))
    for _, a, b in mergeable:
        ra, rb = sorted((find(a), find(b)))
        parent[rb] = ra
    blocks = {}
    for site in sites:
        blocks.setdefault(find(site), []).append(site)
    return sorted(tuple(sorted(b)) for b in blocks.values())


def test_clusters_match_union_find_reference():
    rng = random.Random(41)
    merged = 0
    for _ in range(200):
        # empty token sets are frequent: two of them are 1.0-similar
        profiles = [profile(f"s{i}.net", rng.sample("abcdefg", rng.randint(0, 4)))
                    for i in range(rng.randint(0, 14))]
        for sigma in (0.0, rng.random(), 0.5, 1.0, 1.5):
            expected = union_find_clusters(profiles, sigma)
            assert cluster_sites(rng.sample(profiles, len(profiles)), sigma) == expected
            merged += len(expected) < len(profiles)
    assert merged > 200
    # A chain: site i shares one token with site i+1 (Jaccard 1/3) and none
    # with the others, so only single linkage through every link joins them.
    chain = [profile(f"s{i:02d}.net", [f"t{i}", f"t{i + 1}"]) for i in range(40)]
    for sigma, expected in ((0.3, [tuple(p.site for p in chain)]),
                            (0.5, [(p.site,) for p in chain])):
        assert union_find_clusters(chain, sigma) == expected
        assert cluster_sites(rng.sample(chain, len(chain)), sigma) == expected


def test_artificial_directory_structure(sample_records):
    refs = [extract_page_ref(r.resource) for r in sample_records]
    profiles = profile_sites(refs)
    partition = cluster_sites(profiles, 0.9)
    assert len(partition) == 4  # nothing merges at 0.9
    tax = build_artificial_directory(partition, profiles)
    assert len(tax) == 9  # root + 4 clusters + 4 sites
    # w3schools dominates with 5 hits, so it names Cluster-1
    assert "Top/Cluster-1/www.w3schools.com" in tax
    cluster1 = tax.categories["Top/Cluster-1"]
    assert {"w3schools", "xml"} <= cluster1.keywords
    assert len(cluster1.keywords) <= 5


def test_empty_partition_gives_root_only():
    tax = build_artificial_directory([], [])
    assert tuple(tax) == ("Top",)


def test_artificial_directory_is_valid_taxonomy(sample_records):
    refs = [extract_page_ref(r.resource) for r in sample_records]
    profiles = profile_sites(refs)
    tax = build_artificial_directory(cluster_sites(profiles, 0.2), profiles)
    for path in tax:
        for anc in ancestors(path):
            assert anc in tax
        assert 0.0 <= tax.categories[path].weight <= 1.0
    assert max(depth(p) for p in tax) == 2


def test_partition_validation():
    profiles = [profile("a.com", "x")]
    with pytest.raises(ValueError):
        build_artificial_directory([("a.com", "ghost.com")], profiles)
    with pytest.raises(ValueError):
        build_artificial_directory([], profiles)
    with pytest.raises(ValueError):
        build_artificial_directory([("a.com",), ("a.com",)], profiles)
    with pytest.raises(ValueError, match="partition"):
        build_artificial_directory([("a.com",), ()], profiles)


def loop_checked_directory(partition, profiles):
    """build_artificial_directory as it was when a loop checked the partition
    for an unprofiled site, a repeated site and missing sites, one by one:
    the oracle of the single sorted-list comparison that replaced it. It
    rejects an empty block only by accident, when ``min`` finds it empty."""
    by_site = {p.site: p for p in profiles}
    seen = set()
    for block in partition:
        for site in block:
            if site not in by_site:
                raise ValueError(f"partition mentions unprofiled site {site!r}")
            if site in seen:
                raise ValueError(f"partition repeats site {site!r}")
            seen.add(site)
    if seen != set(by_site):
        missing = sorted(set(by_site) - seen)
        raise ValueError(f"partition does not cover sites: {missing}")

    def block_key(block):
        return (-sum(by_site[s].hits for s in block), min(block))

    entries = {ROOT: ((), None)}
    for k, block in enumerate(sorted(partition, key=block_key), 1):
        cluster_tokens = Counter()
        for site in block:
            cluster_tokens.update(by_site[site].tokens)
        cluster_path = f"{ROOT}/Cluster-{k}"
        entries[cluster_path] = (_top_tokens(cluster_tokens), None)
        for site in sorted(block):
            entries[f"{cluster_path}/{site}"] = (_top_tokens(by_site[site].tokens), None)
    return make_taxonomy(entries)


def random_partition(rng, profiles):
    """A partition of the profiled sites, often spoiled: a site dropped, an
    unprofiled one or a repeat added, an empty block added."""
    blocks = [[] for _ in range(rng.randint(1, 4))]
    for p in profiles:
        rng.choice(blocks).append(p.site)
    sites = [p.site for p in profiles]
    if sites and rng.random() < 0.2:
        dropped = rng.choice(sites)
        blocks = [[s for s in b if s != dropped] for b in blocks]
    if rng.random() < 0.2:
        rng.choice(blocks).append(f"s{rng.randrange(8)}.net")
    if sites and rng.random() < 0.2:
        rng.choice(blocks).append(rng.choice(sites))
    blocks = [b for b in blocks if b or rng.random() < 0.3]
    if rng.random() < 0.2:
        blocks.append([])
    return [tuple(rng.sample(b, len(b))) for b in blocks]


def test_partition_check_matches_loop_oracle():
    rng = random.Random(25)
    outcomes = Counter()
    for _ in range(2000):
        profiles = [profile(f"s{i}.net", rng.sample("abcdefg", rng.randint(0, 4)),
                            hits=rng.randint(1, 3))
                    for i in rng.sample(range(8), rng.randint(0, 6))]
        partition = random_partition(rng, profiles)
        try:
            expected = loop_checked_directory(partition, profiles)
        except ValueError:
            with pytest.raises(ValueError, match="partition"):
                build_artificial_directory(partition, profiles)
            outcomes["rejected"] += 1
            outcomes["empty block"] += not all(partition)
            continue
        tax = build_artificial_directory(partition, profiles)
        assert tax.categories == expected.categories
        outcomes["accepted"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_cluster_order_by_hits_then_site():
    profiles = [profile("b.com", "pq", hits=2), profile("a.com", "xy", hits=2),
                profile("z.com", "mn", hits=9)]
    tax = build_artificial_directory(cluster_sites(profiles, 2.0), profiles)
    assert "Top/Cluster-1/z.com" in tax       # most hits first
    assert "Top/Cluster-2/a.com" in tax       # tie broken by site name
    assert "Top/Cluster-3/b.com" in tax
