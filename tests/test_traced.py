"""The traced benchmark run drives the library through the CLI's helpers.

``perfbench/traced.py`` calls ``cli.read_records``, ``cli.atomic_write``,
``cli._policy_from_args`` and ``cli.build_parser``; this runs it in-process
on small workloads, with a curated and with an artificial taxonomy, so that
renaming any of them fails here, and compares its ``--out`` tree with the
one ``commdir cluster`` writes, so that a change to ``cmd_cluster`` not
copied into the traced run fails here too. The traced run writes one text
tree per community, which the CLI joins into ``communities.txt``; the test
joins them the same way. ``perfbench/check.py::parse_counts``, which reads
``clf.parse_stream``'s outcomes on every benchmark run, is pinned here too.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402
import traced  # noqa: E402
from test_sparse_workload import SPARSE  # noqa: E402

from commdir import cli  # noqa: E402

# The small overlap-cliques workload of perfbench/tests/test_check.py.
OVERLAP = {"users": 60, "areas": 2, "topics_per_area": 4, "hits_per_user": 40}
WORKLOADS = {"overlap-cliques": OVERLAP, "sparse-artificial": SPARSE}


@pytest.fixture(params=sorted(WORKLOADS))
def traced_run(request, tmp_path):
    """Generate a small workload and trace one run: (workload, files, truth, out, result)."""
    wl = gen.WORKLOADS[request.param]
    files, truth = gen.generate(wl.name, 5, str(tmp_path), WORKLOADS[wl.name])
    spec, result, out = tmp_path / "spec.json", tmp_path / "trace.json", tmp_path / "out"
    spec.write_text(json.dumps({
        "workload": wl.name, "input": files["log"],
        "taxonomy": files.get("taxonomy"), "out": str(out),
        "flags": list(wl.cluster_flags)}))
    assert traced.main([str(spec), str(result)]) == 0
    return wl, files, truth, out, result


def test_traced_run_passes_output_checks(traced_run):
    wl, files, truth, out, result = traced_run
    flags = wl.cluster_flags
    assert check.outputs(str(out), truth, flags[flags.index("--tau") + 1],
                         keep_singletons="--keep-singletons" in flags,
                         check_cliques=truth.vectors is not None) == []
    counts = json.loads(result.read_text())["counts"]
    assert counts["clf.lines"] == truth.lines
    assert counts["clf.kept"] == truth.kept
    assert counts["clf.filtered_out"] == truth.filtered_out


def test_traced_run_writes_what_the_cli_writes(traced_run, tmp_path, capsys):
    # The traced copy of cmd_cluster must not drift from it. Its report.json
    # lacks only the two input counts the CLI adds.
    wl, files, _, out, _ = traced_run
    cli_out = tmp_path / "cli-out"
    source = ["--taxonomy", files["taxonomy"]] if "taxonomy" in files else []
    assert cli.main(["cluster", files["log"], *source, "--out", str(cli_out),
                     *wl.cluster_flags]) == 0
    capsys.readouterr()
    trees = sorted(out.glob("community-*.txt"))
    assert trees
    assert b"\n".join(p.stem.encode() + b"\n" + p.read_bytes() for p in trees) == \
        (cli_out / "communities.txt").read_bytes()
    names = sorted(p.name for p in out.iterdir() if p not in trees)
    assert names == sorted(p.name for p in cli_out.iterdir() if p.name != "communities.txt")
    for name in names:
        if name != "report.json":
            assert (out / name).read_bytes() == (cli_out / name).read_bytes(), name
    report = json.loads((cli_out / "report.json").read_text())
    assert set(report) - set(json.loads((out / "report.json").read_text())) == \
        {"parse_errors", "filtered_out"}
    del report["parse_errors"], report["filtered_out"]
    assert report == json.loads((out / "report.json").read_text())


def test_parse_counts_match_the_generator(tmp_path):
    files, truth = gen.generate("sparse-artificial", 5, str(tmp_path), SPARSE)
    assert sum(truth.rejects.values()) > 0
    assert check.parse_counts(files["log"], truth) == []
