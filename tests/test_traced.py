"""The traced benchmark run drives the library through the CLI's helpers.

``perfbench/traced.py`` calls ``cli.read_records``, ``cli.atomic_write``,
``cli._policy_from_args`` and ``cli.build_parser``; this runs it in-process
on a small workload so that renaming any of them fails here.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402
import traced  # noqa: E402

# The small overlap-cliques workload of perfbench/tests/test_check.py.
OVERLAP = {"users": 60, "areas": 2, "topics_per_area": 4, "hits_per_user": 40}


def test_traced_run_passes_output_checks(tmp_path):
    files, truth = gen.generate("overlap-cliques", 5, str(tmp_path), OVERLAP)
    spec, result, out = tmp_path / "spec.json", tmp_path / "trace.json", tmp_path / "out"
    spec.write_text(json.dumps({
        "workload": "overlap-cliques", "input": files["log"],
        "taxonomy": files["taxonomy"], "out": str(out),
        "flags": list(gen.WORKLOADS["overlap-cliques"].cluster_flags)}))
    assert traced.main([str(spec), str(result)]) == 0
    assert check.outputs(str(out), truth, "0.4", keep_singletons=True,
                         check_cliques=True) == []
    counts = json.loads(result.read_text())["counts"]
    assert counts["clf.lines"] == truth.lines
    assert counts["clf.kept"] == truth.kept
    assert counts["clf.filtered_out"] == truth.filtered_out
