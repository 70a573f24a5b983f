"""Scaling gates: the community back end grows with its output, not with users squared.

The benchmark's overlap-cliques workload is built at 300, 600 and 1,200
users. Its users fall into the same 105 twin classes at every scale, so the
graph has the same 470 maximal cliques and the report the same 9,660
overlap triples; only the membership of those cliques grows with the users.
Adjacency reads in ``find_communities`` must then grow no faster than the
membership, and the traced peak of ``build_report``, which holds a row per
membership and the triples, no faster than the two together.

``report_text`` must grow with the communities alone: on a Moon-Moser log
(``tests/loggen.py``) nearly every pair of its cliques overlaps.

``cluster`` must profile each community from its own members' vectors, so
the vectors it hands ``community_profile`` number the total membership,
not the communities times the users.

``cluster`` must read its log into a count per distinct (user, resource)
pair, holding no record once counted, so the traced peak of its ingest
stays put while the lines grow and those pairs do not.

``cluster_sites`` must hold no graph of the sites: at sigma 0 it returns
its one block without linking every pair of sites, and above 0 it merges
the blocks of each linked pair as the join yields it, so its traced peak
grows with the sites, not with their linked pairs.
"""

import pathlib
import sys
import tracemalloc
from collections import Counter

import pytest

from commdir import cli, community
from commdir.artificial import SiteProfile, cluster_sites
from commdir.classify import build_usage_vectors
from commdir.cli import read_records
from commdir.clf import filter_records
from commdir.community import (DEFAULT_THETA, SimilarityGraph, _twin_classes,
                               build_community_directory, build_graph, community_profile,
                               find_communities)
from commdir.metrics import build_report, report_text
from commdir.taxonomy import load_taxonomy

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
from loggen import moon_moser_log, write_bulk_log  # noqa: E402

SCALES = (300, 600, 1_200)
# A measured figure may grow up to 25% faster than its bound before a gate
# fails. Measured growth from 300 to 1,200 users: adjacency reads 1.15x
# (about 6,300 -> 7,250; pivot choices follow the hash seed) against
# membership 4x, and the report peak 1.11x (2.54 -> 2.83 MB) against
# membership plus triples 1.95x. A search over users instead of twin
# classes reads 3.4x as much at 600 users, against a 2.5x gate.
SLACK = 1.25


class CountingDict(dict):
    """A dict that counts the values read from it by key."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def measure(directory, users):
    """Counts and costs of the community back end on overlap-cliques at ``users``."""
    wl = gen.WORKLOADS["overlap-cliques"]
    files, _ = gen.generate(wl.name, 1, str(directory), {"users": users})
    flags = wl.cluster_flags
    tau = float(flags[flags.index("--tau") + 1])
    tax = load_taxonomy(files["taxonomy"])
    vectors = build_usage_vectors(list(filter_records(read_records(files["log"])[0])), tax)
    adjacency = CountingDict(build_graph(vectors, tau).adjacency)
    classes = len(_twin_classes(adjacency))
    adjacency.reads = 0
    cliques = find_communities(SimilarityGraph(adjacency), keep_singletons=True)
    directories = [build_community_directory(tax, community_profile(m, vectors), DEFAULT_THETA)
                   for m in cliques]
    tracemalloc.start()
    try:
        report = build_report(tax, directories, vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"classes": classes, "cliques": len(cliques),
            "members": sum(map(len, cliques)), "triples": len(report["overlap"]),
            "reads": adjacency.reads, "peak": peak}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {n: measure(tmp_path_factory.mktemp(f"overlap-{n}"), n) for n in SCALES}


def growth(runs, figure):
    """``figure(run)`` at each scale over its value at the smallest."""
    values = [figure(runs[n]) for n in SCALES]
    return [v / values[0] for v in values]


def test_output_shape_is_fixed_while_membership_grows(runs):
    assert [(runs[n]["classes"], runs[n]["cliques"], runs[n]["triples"]) for n in SCALES] \
        == [(105, 470, 9_660)] * len(SCALES)
    assert [runs[n]["members"] for n in SCALES] == [15 * n for n in SCALES]


def test_clique_search_reads_grow_no_faster_than_membership(runs):
    bound = growth(runs, lambda run: run["members"])
    for n, reads, limit in zip(SCALES, growth(runs, lambda run: run["reads"]), bound):
        assert reads <= SLACK * limit, (n, runs[n]["reads"])


def test_report_peak_grows_no_faster_than_membership_plus_triples(runs):
    bound = growth(runs, lambda run: run["members"] + run["triples"])
    for n, peak, limit in zip(SCALES, growth(runs, lambda run: run["peak"]), bound):
        assert peak <= SLACK * limit, (n, runs[n]["peak"])


# report_text's lines that are no community's row when the report has no
# parameters: title, counts, column heads, averages, the overlap's line and
# the blank lines between them (13), with room to spare.
FIXED_REPORT_LINES = 20


def test_report_text_grows_with_communities_not_overlapping_pairs(tmp_path):
    log_text, tax_text, tau = moon_moser_log(5)
    (tmp_path / "mm.log").write_text(log_text)
    (tmp_path / "mm.tsv").write_text(tax_text)
    tax = load_taxonomy(str(tmp_path / "mm.tsv"))
    vectors = build_usage_vectors(list(filter_records(read_records(str(tmp_path / "mm.log"))[0])),
                                  tax)
    cliques = find_communities(build_graph(vectors, float(tau)))
    directories = [build_community_directory(tax, community_profile(m, vectors), DEFAULT_THETA)
                   for m in cliques]
    report = build_report(tax, directories, vectors)
    assert (len(cliques), len(report["overlap"])) == (243, 25_515)
    assert len(report_text(report).splitlines()) <= len(cliques) + FIXED_REPORT_LINES


def test_cluster_profiles_each_community_from_its_members(tmp_path, capsys, monkeypatch):
    wl = gen.WORKLOADS["overlap-cliques"]
    files, _ = gen.generate(wl.name, 1, str(tmp_path), {"users": SCALES[0]})
    members, passed = [], []

    def counting_profile(m, vectors):
        vectors = list(vectors)
        members.append(len(m))
        passed.append(len(vectors))
        return community_profile(m, vectors)

    monkeypatch.setattr(community, "community_profile", counting_profile)
    assert cli.main(["cluster", files["log"], "--taxonomy", files["taxonomy"],
                     "--out", str(tmp_path / "out"), *wl.cluster_flags]) == 0
    # Handing every community all 300 vectors passes 470 x 300 = 141,000.
    assert (len(members), sum(members)) == (470, 15 * SCALES[0])
    assert sum(passed) == sum(members)


# Measured growth of the peak for 4x the lines: 0.9x when the pairs are
# counted (1.02 -> 0.95 MB), 4.0x when every record is held (4.0 -> 16.0 MB).
INGEST_GROWTH = 1.5


def ingest_peak(log):
    """Traced peak of ``cluster``'s ingest: reading and filtering ``log``."""
    args = cli.build_parser().parse_args(["cluster", str(log), "--artificial"])
    tracemalloc.start()
    try:
        cli._read_input(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_peak_grows_with_distinct_pairs_not_lines(tmp_path):
    # write_bulk_log cycles through 1,024 hosts and 4,096 resources, so from
    # 4,096 lines on its log holds the same 4,096 (user, resource) pairs.
    peaks, pairs = [], []
    for lines in (10_000, 40_000):
        log = tmp_path / f"{lines}.log"
        write_bulk_log(log, lines)
        pairs.append(len({(r.host, r.resource) for r in read_records(str(log))[0]}))
        peaks.append(ingest_peak(log))
    assert pairs == [4_096, 4_096]
    assert peaks[1] < INGEST_GROWTH * peaks[0], peaks


# Measured growth of the peak for 4x the sites: at sigma 0, 4.0x for one
# block (41 -> 164 kB), 15.6x when the join links every pair (8.4 -> 132 MB);
# at sigma 0.3, 4.0x when blocks are merged from the pairs (0.18 -> 0.71 MB),
# 13.5x when an adjacency of the linked pairs is built first (1.29 -> 17.45 MB).
SITES_GROWTH = 5


def cluster_sites_peak(sites, sigma):
    """Traced peak of ``cluster_sites`` at ``sigma`` on ``sites`` synthetic profiles.

    Site i carries tokens t(i mod 97) and u(i mod 13), so it shares one with
    about a thirteenth of the sites (Jaccard 1/3), and the sites form one block.
    """
    profiles = [SiteProfile(f"www.s{i:05d}.com", Counter({f"t{i % 97}": 1, f"u{i % 13}": 2}), 1)
                for i in range(sites)]
    tracemalloc.start()
    try:
        partition = cluster_sites(profiles, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert partition == [tuple(p.site for p in profiles)]
    return peak


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_cluster_sites_peak_grows_with_sites_not_pairs(sigma):
    small, large = cluster_sites_peak(500, sigma), cluster_sites_peak(2_000, sigma)
    assert large <= SITES_GROWTH * small, (small, large)
