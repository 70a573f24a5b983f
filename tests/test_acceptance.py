"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The throughput case generates a 1M-line log, so this module takes
noticeably longer than the unit suites.
"""

import io
import itertools
import random
import time


from commdir.classify import UNSPECIFIED, build_usage_vectors
from commdir.clf import (LogRecord, format_record, format_timestamp, open_log, parse_line,
                         parse_stream)
from commdir.cli import main as cli_main
from commdir.community import (
    SimilarityGraph,
    build_community_directory,
    build_graph,
    community_profile,
    find_communities,
)
from commdir.artificial import SiteProfile, cluster_sites
from commdir.metrics import coverage, shrinkage
from commdir.taxonomy import ancestors, load_taxonomy, make_taxonomy
from commdir.urls import extract_page_ref

from loggen import planted_two_group_log, random_clf_line, write_bulk_log


def record_pass(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_golden_parse_of_sample_log(sample_log_path, data_dir):
    started = time.perf_counter()
    with open_log(sample_log_path) as f:
        outcomes = list(parse_stream(f))
    elapsed = time.perf_counter() - started
    assert len(outcomes) == 13
    assert all(o.ok for o in outcomes)

    # Expected fields, one tab-separated row per record; "-" is an absent field.
    golden_rows = [
        line.split("\t")
        for line in (data_dir / "sample_access_golden.tsv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(golden_rows) == 13
    for outcome, row in zip(outcomes, golden_rows):
        rec = outcome.result
        fields = [rec.host, rec.ident or "-", rec.authuser or "-",
                  format_timestamp(rec.timestamp), rec.method, rec.resource, rec.protocol,
                  str(rec.status), "-" if rec.bytes is None else str(rec.bytes)]
        assert fields == row
    assert elapsed < 1.0
    record_pass(f"golden parse: 13/13 records, 0 errors, {elapsed * 1000:.1f} ms")


def test_clf_round_trip_10k_random_lines():
    rng = random.Random(20240401)
    for i in range(10_000):
        line = random_clf_line(rng)
        rec = parse_line(line)
        assert isinstance(rec, LogRecord), f"case {i}: {line!r}"
        assert parse_line(format_record(rec)) == rec, f"case {i}: {line!r}"
    record_pass("CLF round-trip holds on 10,000 random valid lines")


def test_site_extraction_golden_counts(sample_records):
    from collections import Counter

    refs = [extract_page_ref(r.resource) for r in sample_records]
    hits = Counter(r.site for r in refs if r.site is not None)
    local = sum(1 for r in refs if r.site is None)
    assert hits == {
        "www.microsoft.com": 3,
        "www.google.co.in": 3,
        "www.google.com": 1,
        "www.w3schools.com": 5,
    }
    assert local == 1
    record_pass("site extraction: 4 sites with golden hit counts, 1 local page")


def test_clique_enumeration_matches_brute_force():
    def brute_force(vertices, adj):
        cliques = []
        for r in range(1, len(vertices) + 1):
            for combo in itertools.combinations(sorted(vertices), r):
                if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                    cliques.append(set(combo))
        maximal = [c for c in cliques if not any(c < d for d in cliques)]
        return sorted(tuple(sorted(c)) for c in maximal)

    rng = random.Random(457)
    started = time.perf_counter()
    for case in range(200):
        n = rng.randint(1, 10)
        vertices = tuple(f"v{i}" for i in range(n))
        p = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
        adj = {v: set() for v in vertices}
        for a, b in itertools.combinations(vertices, 2):
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
        graph = SimilarityGraph({v: frozenset(s) for v, s in adj.items()})
        assert find_communities(graph, min_size=1) == brute_force(vertices, adj), \
            f"case {case}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    record_pass(f"clique oracle: 200 random graphs match brute force, {elapsed:.2f} s")


def _random_taxonomy(rng):
    entries = {}
    for _ in range(rng.randint(1, 12)):
        segments = [f"c{rng.randint(0, 5)}" for _ in range(rng.randint(1, 3))]
        entries["/".join(["Top"] + segments)] = ((), None)
    return make_taxonomy(entries)


def _random_community(rng, tax):
    paths = list(tax)
    profile = {p: rng.randint(1, 20)
               for p in rng.sample(paths, rng.randint(1, len(paths)))}
    if rng.random() < 0.5:
        profile[UNSPECIFIED] = rng.randint(1, 10)
    from commdir.community import Community
    return Community(("u",), profile, sum(profile.values()))


def test_directory_invariants_randomized():
    rng = random.Random(31337)
    for _ in range(60):
        tax = _random_taxonomy(rng)
        com = _random_community(rng, tax)

        full = build_community_directory(tax, com, 0.0)
        assert set(full.selected) == set(tax)

        t1, t2 = sorted((rng.random(), rng.random()))
        d1 = build_community_directory(tax, com, t1)
        d2 = build_community_directory(tax, com, t2)
        assert set(d2.selected) <= set(d1.selected)
        for d in (d1, d2):
            for path in d.selected:
                assert all(a in d.selected for a in ancestors(path))

        k = rng.randint(2, 50)
        from commdir.community import Community
        scaled = Community(com.members,
                           {c: k * n for c, n in com.profile.items()},
                           k * com.total)
        scores = full.selected
        scaled_scores = build_community_directory(tax, scaled, 0.0).selected
        for path in tax:
            assert abs(scores[path] - scaled_scores[path]) <= 1e-12
    record_pass("directory invariants: closure, theta monotonicity, theta=0 "
                "completeness, scale invariance <= 1e-12 (60 random instances)")


def test_planted_two_communities_recovered(tmp_path):
    started = time.perf_counter()
    log_text, tax_text, group_a, group_b = planted_two_group_log(seed=42)

    tax = load_taxonomy(io.StringIO(tax_text))
    assert len(tax) == 50

    outcomes = list(parse_stream(io.StringIO(log_text)))
    assert all(o.ok for o in outcomes)
    vectors = build_usage_vectors([o.result for o in outcomes], tax)
    assert len(vectors) == 100

    graph = build_graph(vectors, tau=0.5)
    member_sets = find_communities(graph, min_size=2)
    assert len(member_sets) == 2
    assert sorted(len(m) for m in member_sets) == [50, 50]

    for members, leaves in zip(member_sets, (group_a, group_b)):
        assert all(u.startswith("host-a" if leaves is group_a else "host-b")
                   for u in members)
        com = community_profile(members, vectors)
        cdir = build_community_directory(tax, com, theta=0.05)
        assert set(cdir.selected) == set(leaves) | {"Top"}
        assert coverage(cdir, com) == 1.0
        assert shrinkage(tax, cdir) <= (5 + 1) / 50
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    record_pass(f"planted communities: 2/2 recovered exactly, coverage 1.0, "
                f"shrinkage <= 6/50, {elapsed:.2f} s")


def test_single_linkage_nesting_100_random_sets():
    rng = random.Random(8080)
    alphabet = "abcdefghij"
    for case in range(100):
        profiles = []
        for i in range(rng.randint(2, 12)):
            tokens = rng.sample(alphabet, rng.randint(1, 6))
            from collections import Counter
            profiles.append(SiteProfile(f"s{i}.net",
                                        Counter(dict.fromkeys(tokens, 1)), 1))
        s1, s2 = sorted((rng.random(), rng.random()))
        coarse = cluster_sites(profiles, s1)
        fine = cluster_sites(profiles, s2)
        block_of = {site: i for i, block in enumerate(coarse) for site in block}
        for block in fine:
            assert len({block_of[s] for s in block}) == 1, f"case {case}"
    record_pass("single-linkage nesting: sigma2 partition refines sigma1 "
                "(100 random profile sets)")


def test_throughput_1m_lines(tmp_path):
    log_path = tmp_path / "big.log"
    n = 1_000_000
    write_bulk_log(log_path, n)

    started = time.perf_counter()
    parsed = 0
    with open_log(log_path) as f:
        for outcome in parse_stream(f):
            extract_page_ref(outcome.result.resource)
            parsed += 1
    elapsed = time.perf_counter() - started
    rate = parsed / elapsed
    assert parsed == n
    assert rate >= 100_000, f"parse+extract rate {rate:,.0f} lines/s below target"
    record_pass(f"throughput: parse+extract {rate:,.0f} lines/s on 1M lines")


def test_cluster_outputs_deterministic_and_order_free(tmp_path, capsys):
    log_text, tax_text, _, _ = planted_two_group_log(seed=7)
    tax_file = tmp_path / "planted-taxonomy.tsv"
    tax_file.write_text(tax_text)

    def run_cluster(log_lines, out_name):
        log_file = tmp_path / "planted.log"
        log_file.write_text("\n".join(log_lines) + "\n")
        out = tmp_path / out_name
        code = cli_main(["cluster", str(log_file), "--taxonomy", str(tax_file),
                         "--tau", "0.5", "--theta", "0.05", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    lines = log_text.strip().split("\n")
    first = run_cluster(lines, "run1")
    second = run_cluster(lines, "run2")
    assert first == second

    shuffled = lines[:]
    random.Random(99).shuffle(shuffled)
    permuted = run_cluster(shuffled, "run3")
    assert permuted == first
    assert {"community-001.json", "community-002.json", "communities.txt",
            "report.txt", "report.json"} <= set(first)
    assert first["communities.txt"].startswith(b"community-001\nTop  ")
    assert b"\n\ncommunity-002\nTop  " in first["communities.txt"]
    record_pass("determinism: byte-identical outputs across reruns and "
                "input permutations")
