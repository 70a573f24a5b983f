"""Golden output digests: the CLI's outputs, byte for byte, on fixed inputs.

Each run below is one CLI command on the benchmark's workloads at seed 2
(``perfbench/gen.py``) or on ``tests/data``. The test hashes every file the
command writes and its stdout with SHA-256 and compares each digest with
``tests/data/golden.json``. A change that alters an output must say so and
rewrite that file, with
``PYTHONPATH=src python tests/test_golden.py > tests/data/golden.json``.
The seed and the workload sizes are fixed: never change them to make a
digest pass.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))
import gen  # noqa: E402

from commdir.cli import main  # noqa: E402

GOLDEN = TESTS / "data" / "golden.json"
SEED = 2


def _runs(inputs, work):
    """(name, argv, output path or None) of each run, in order: a later run
    may read what an earlier one wrote."""
    overlap, sparse = inputs["overlap-cliques"], inputs["sparse-artificial"]
    sample, taxonomy = (str(TESTS / "data" / f) for f in ("sample_access.log", "taxonomy.tsv"))
    records = os.path.join(work, "records.log")
    outs = [os.path.join(work, f"out-{i}") for i in range(4)]
    return [
        ("overlap-cliques: parse", ["parse", overlap["log"], "--out", records], records),
        ("overlap-cliques: cluster --taxonomy",
         ["cluster", records, "--taxonomy", overlap["taxonomy"], "--out", outs[0],
          *gen.WORKLOADS["overlap-cliques"].cluster_flags], outs[0]),
        ("sparse-artificial: cluster --artificial",
         ["cluster", sparse["log"], "--out", outs[1],
          *gen.WORKLOADS["sparse-artificial"].cluster_flags], outs[1]),
        ("sparse-artificial: sites --dirs", ["sites", sparse["log"], "--dirs"], None),
        ("tests/data: cluster --taxonomy",
         ["cluster", sample, "--taxonomy", taxonomy, "--keep-singletons", "--out", outs[2]],
         outs[2]),
        ("tests/data: cluster --artificial",
         ["cluster", sample, "--artificial", "--keep-singletons", "--out", outs[3]], outs[3]),
    ]


def digests() -> dict:
    """{run name: {file name or "stdout": SHA-256}} of the code at hand."""
    result = {}
    with tempfile.TemporaryDirectory() as work:
        inputs = {name: gen.generate(name, SEED, os.path.join(work, name))[0]
                  for name in ("overlap-cliques", "sparse-artificial")}
        for name, argv, out in _runs(inputs, work):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            assert code == 0, (name, code)
            files = {"stdout": stdout.getvalue().encode("utf-8")}
            if out is not None:
                out = pathlib.Path(out)
                files.update((p.name, p.read_bytes())
                             for p in (out.iterdir() if out.is_dir() else [out]))
            result[name] = {f: hashlib.sha256(data).hexdigest()
                            for f, data in sorted(files.items())}
    return result


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["seed"] == SEED
    expected, actual = golden["runs"], digests()
    differing = [f"{run}: {f}"
                 for run in sorted(expected.keys() | actual.keys())
                 for f in sorted(expected.get(run, {}).keys() | actual.get(run, {}).keys())
                 if expected.get(run, {}).get(f) != actual.get(run, {}).get(f)]
    assert not differing, "outputs differ from tests/data/golden.json:\n" + "\n".join(differing)


if __name__ == "__main__":
    print(json.dumps({"seed": SEED, "runs": digests()}, indent=1))
