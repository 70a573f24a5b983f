"""The traced benchmark run drives the library through the CLI's helpers.

``perfbench/traced.py`` calls ``cli.read_records``, ``cli.atomic_write``,
``cli._policy_from_args`` and ``cli.build_parser``; this runs it in-process
on a small workload so that renaming any of them fails here, and compares
its ``--out`` tree with the one ``commdir cluster`` writes, so that a change
to ``cmd_cluster`` not copied into the traced run fails here too. The traced
run writes one text tree per community, which the CLI joins into
``communities.txt``; the test joins them the same way.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402
import traced  # noqa: E402

from commdir import cli  # noqa: E402

# The small overlap-cliques workload of perfbench/tests/test_check.py.
OVERLAP = {"users": 60, "areas": 2, "topics_per_area": 4, "hits_per_user": 40}


def traced_run(tmp_path):
    """Generate the small workload and trace one run: (files, truth, out, result)."""
    files, truth = gen.generate("overlap-cliques", 5, str(tmp_path), OVERLAP)
    spec, result, out = tmp_path / "spec.json", tmp_path / "trace.json", tmp_path / "out"
    spec.write_text(json.dumps({
        "workload": "overlap-cliques", "input": files["log"],
        "taxonomy": files["taxonomy"], "out": str(out),
        "flags": list(gen.WORKLOADS["overlap-cliques"].cluster_flags)}))
    assert traced.main([str(spec), str(result)]) == 0
    return files, truth, out, result


def test_traced_run_passes_output_checks(tmp_path):
    files, truth, out, result = traced_run(tmp_path)
    assert check.outputs(str(out), truth, "0.4", keep_singletons=True,
                         check_cliques=True) == []
    counts = json.loads(result.read_text())["counts"]
    assert counts["clf.lines"] == truth.lines
    assert counts["clf.kept"] == truth.kept
    assert counts["clf.filtered_out"] == truth.filtered_out


def test_traced_run_writes_what_the_cli_writes(tmp_path, capsys):
    # The traced copy of cmd_cluster must not drift from it. Its report.json
    # lacks only the two input counts the CLI adds.
    files, _, out, _ = traced_run(tmp_path)
    cli_out = tmp_path / "cli-out"
    assert cli.main(["cluster", files["log"], "--taxonomy", files["taxonomy"],
                     "--out", str(cli_out),
                     *gen.WORKLOADS["overlap-cliques"].cluster_flags]) == 0
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
