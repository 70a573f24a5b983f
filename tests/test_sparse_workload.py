"""The --artificial path end to end on a small sparse-artificial workload.

The CLI clusters a generated gzip log the way the benchmark invokes it, the
output passes the benchmark's checks, and on the same records both
similarity joins equal the all-pairs oracle. Every page of the workload is
a site's, and each hit is booked to its own site's node.
"""

import pathlib
import sys
from collections import Counter

from commdir.artificial import _jaccard, build_artificial_directory, cluster_sites, profile_sites
from commdir.classify import build_usage_vectors, user_key
from commdir.cli import main, read_records
from commdir.clf import DEFAULT_POLICY, filter_records
from commdir.community import build_graph, threshold_join
from commdir.urls import extract_page_ref
from test_artificial import jaccard, union_find_clusters
from test_community import all_pairs_join, pair_adjacency, similarity

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402

SPARSE = {"lines": 3_000, "users": 150, "sites": 120, "themes": 25}


def test_sparse_artificial_cli_run_and_joins_match_oracle(tmp_path):
    wl = gen.WORKLOADS["sparse-artificial"]
    files, truth = gen.generate(wl.name, 3, str(tmp_path / "in"), SPARSE)
    out, flags = tmp_path / "out", wl.cluster_flags
    assert main(["cluster", files["log"], "--out", str(out)] + list(flags)) == 0
    tau = flags[flags.index("--tau") + 1]
    assert check.outputs(str(out), truth, tau, keep_singletons=False,
                         check_cliques=False) == []
    tau, sigma = float(tau), float(flags[flags.index("--sigma") + 1])

    records, _ = read_records(files["log"])
    kept = list(filter_records(records, DEFAULT_POLICY))
    profiles = profile_sites(extract_page_ref(r.resource) for r in kept)
    sites = all_pairs_join({p.site: set(p.tokens) for p in profiles}, jaccard, sigma)
    assert any(sites.values())
    tokens = {p.site: dict.fromkeys(p.tokens or [None], 1) for p in profiles}
    assert pair_adjacency(tokens, threshold_join(tokens, _jaccard, sigma)) == sites
    partition = cluster_sites(profiles, sigma)
    assert partition == union_find_clusters(profiles, sigma)

    vectors = build_usage_vectors(kept, build_artificial_directory(partition, profiles))
    users = all_pairs_join({v.user: v for v in vectors}, similarity, tau)
    assert any(users.values())
    assert build_graph(vectors, tau).adjacency == users


def test_artificial_books_each_hit_to_its_own_sites_node(tmp_path):
    wl = gen.WORKLOADS["sparse-artificial"]
    files, _ = gen.generate(wl.name, 3, str(tmp_path / "in"), SPARSE)
    out = tmp_path / "out"
    assert main(["cluster", files["log"], "--out", str(out)] + list(wl.cluster_flags)) == 0
    fetched = Counter((user_key(r), extract_page_ref(r.resource).site)
                      for r in filter_records(read_records(files["log"])[0]))
    booked = Counter()
    for line in (out / "usage-vectors.tsv").read_text().splitlines():
        user, category, n = line.split("\t")
        assert category.count("/") == 2, line  # Top/Cluster-k/<site>
        booked[user, category.rsplit("/", 1)[1]] += int(n)
    assert booked == fetched
