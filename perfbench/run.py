"""commdir benchmark: seeded workloads, run-level and traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the
seed (``gen.py``), measures set-up, then runs ``commdir cluster`` as a
subprocess in a closed loop with one client, one run at a time, for S
seconds, checking every run's output (``check.py``).

``--trace 0`` reports the end-to-end metrics, medians over the runs.
``--trace 1`` alternates untraced runs with traced in-process runs
(``traced.py``) and reports the per-layer metrics: each layer's self time
and counts, its share of the traced run's time, and the tracing overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit status is 1 when a run or check failed (the result
line is still printed) and 2 when no commdir sources are found. Generated
files live under ``.bench_work/`` in the repository root; the trace of the
last traced run is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT = 60  # seconds; a slower run is killed and counts as failed
MB = 1e6

sys.path.insert(0, HERE)
import check  # noqa: E402
import gen  # noqa: E402

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "lines_per_s": "1/s", "peak_rss_mb": "MB",
    "out_mb": "MB", "setup_s": "s",
}
LAYERS = ("clf", "cli", "urls", "taxonomy", "classify", "artificial", "community", "metrics")
# Traced spans with a self-time metric of their own (``<span>_s``). Other
# spans (filtering, rendering, the root's glue) count in their layer's share.
TIMED_SPANS = (
    "clf.parse", "cli.read_records", "cli.write", "urls.extract", "taxonomy.load",
    "classify.vectors", "artificial.profile", "artificial.cluster", "community.graph",
    "community.cliques", "community.profile", "community.directory",
    "metrics.report", "metrics.render",
)
REJECT_REASONS = ("MalformedDate", "MalformedRequest", "BadStatus", "BadBytes",
                  "FieldCountMismatch")
COUNT_UNITS = {
    "clf.lines": "count", "clf.filtered_out": "count", "clf.kept": "count",
    "clf.rss_mb": "MB", "cli.files_written": "count", "urls.refs": "count",
    "urls.distinct_resources": "count", "taxonomy.categories": "count",
    "classify.users": "count", "classify.distinct_ratio": "ratio",
    "classify.unspecified_fraction": "ratio", "artificial.site_pairs": "count",
    "artificial.clusters": "count", "community.pairs": "count",
    "community.edges": "count", "community.edge_yield": "ratio",
    "community.cliques": "count", "community.clique_members": "count",
    "community.rss_mb": "MB", "metrics.overlap_cells": "count",
    "metrics.report_json_mb": "MB", "metrics.rss_mb": "MB",
    **{f"clf.rejected.{r}": "count" for r in REJECT_REASONS},
}


@dataclass
class Child:
    """One finished subprocess: exit code, wall time and its own rusage."""

    code: int
    wall: float
    cpu: float
    rss_mb: float


def run_child(argv: list[str], stdout_path: str | None = None) -> Child:
    """Run ``argv`` to completion, timing it from start to exit.

    The child's rusage comes from ``wait4`` on its pid, so CPU time and peak
    RSS are the child's alone. A child still running after RUN_TIMEOUT is
    killed.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(stdout_path or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        timer = threading.Timer(RUN_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Bench:
    """One workload instance: its generated inputs, runs and check results."""

    def __init__(self, name: str, seed: int, directory: str):
        self.wl = gen.WORKLOADS[name]
        self.seed = seed
        self.dir = directory
        self.files, self.truth = gen.generate(name, seed, directory)
        self.input = self.files["log"]
        self.input_lines = self.truth.lines
        if self.wl.parse_first:
            self.input = os.path.join(directory, "records.tsv")
            self.input_lines = self.truth.lines - sum(self.truth.rejects.values())
        flags = self.wl.cluster_flags
        self.tau = flags[flags.index("--tau") + 1]
        self.keep_singletons = "--keep-singletons" in flags
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def cluster_argv(self, out: str) -> list[str]:
        argv = [sys.executable, "-m", "commdir.cli", "cluster", self.input, "--out", out]
        if "taxonomy" in self.files:
            argv += ["--taxonomy", self.files["taxonomy"]]
        return argv + list(self.wl.cluster_flags)

    def setup(self) -> float:
        """One set-up, timed: interpreter start plus ``import commdir``, plus
        ``commdir parse`` to the records TSV where the workload clusters a TSV."""
        child = run_child([sys.executable, "-c", "import commdir"])
        if child.code:
            self.problems.append(f"set-up: import commdir exit code {child.code}")
        return child.wall + (self.parse_run() if self.wl.parse_first else 0.0)

    def parse_run(self) -> float:
        """One ``commdir parse`` of the log to the records TSV; returns its wall time."""
        summary = os.path.join(self.dir, "parse-summary.txt")
        child = run_child([sys.executable, "-m", "commdir.cli", "parse",
                           self.files["log"], "--out", self.input], summary)
        self.attempted += 1
        if child.code:
            problems = [f"exit code {child.code}"]
        else:
            with open(summary, encoding="utf-8") as f:
                problems = check.parse_summary(f.read(), self.truth)
        if problems:
            self.fail("parse run", problems)
        return child.wall

    def check_output(self, out: str) -> list[str]:
        """Full checks on the first good output; later ones must hash the same."""
        try:
            digest = check.digest(out)
            if self.digest is not None:
                return [] if digest == self.digest else [
                    "member lists or usage vectors differ from the first run's"]
            problems = check.outputs(out, self.truth, self.tau, self.keep_singletons,
                                     check_cliques=self.truth.vectors is not None)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        if not problems:
            self.digest = digest
        return problems

    def cluster_run(self) -> tuple[Child, float]:
        """One timed ``commdir cluster`` run; returns it and its output size in MB."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        child = run_child(self.cluster_argv(out), os.path.join(self.dir, "stdout.txt"))
        self.attempted += 1
        problems = [f"exit code {child.code}"] if child.code else self.check_output(out)
        if problems:
            self.fail("cluster run", problems)
        return child, dir_bytes(out) / MB

    def traced_run(self) -> tuple[dict[str, float], dict[str, float], float, float] | None:
        """One traced in-process run: self time per span, counts, root time, wall."""
        out = os.path.join(self.dir, "out-traced")
        shutil.rmtree(out, ignore_errors=True)
        spec = os.path.join(self.dir, "trace-spec.json")
        result = os.path.join(self.dir, "trace.json")
        with open(spec, "w", encoding="utf-8") as f:
            json.dump({"workload": self.wl.name, "input": self.input,
                       "taxonomy": self.files.get("taxonomy"), "out": out,
                       "flags": list(self.wl.cluster_flags)}, f)
        child = run_child([sys.executable, os.path.join(HERE, "traced.py"), spec, result])
        self.attempted += 1
        if child.code:
            self.fail("traced run", [f"exit code {child.code}"])
            return None
        with open(result, encoding="utf-8") as f:
            trace = json.load(f)
        problems = self.check_output(out) + self.check_counts(trace["counts"])
        if problems:
            self.fail("traced run", problems)
        shutil.copy(result, os.path.join(WORK, f"trace-{self.wl.name}-seed{self.seed}.json"))
        selfs, root = self_times(trace["spans"])
        return selfs, trace["counts"], root, child.wall

    def check_counts(self, counts: dict[str, float]) -> list[str]:
        truth = self.truth
        expected = {"clf.kept": truth.kept, "clf.filtered_out": truth.filtered_out,
                    "classify.users": len(truth.user_totals)}
        if not self.wl.parse_first:  # the raw log goes through clf.parse_stream
            expected["clf.lines"] = truth.lines
            expected.update({f"clf.rejected.{r}": truth.rejects.get(r, 0)
                             for r in REJECT_REASONS})
        return [f"traced {k} = {counts[k]}, generator emitted {v}"
                for k, v in expected.items() if counts[k] != v]

    def final_checks(self) -> None:
        problems = check.parse_counts(self.files["log"], self.truth)
        if problems:
            self.problems += [f"parse counts: {p}" for p in problems]


def self_times(spans: list[dict]) -> tuple[dict[str, float], float]:
    """Self time summed per span name, and the root span's duration.

    A span's self time is its duration minus that of its children; spans of
    one thread nest, so the children never overlap.
    """
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    selfs: dict[str, float] = defaultdict(float)
    root = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        selfs[s["name"]] += duration - children[s["id"]]
        if s["parent"] is None:
            root += duration
    return dict(selfs), root


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop, a reference for machine speed.

    On a shared VM the same run can be much slower for minutes at a time
    with no load in the VM; this figure, taken at start and end, shows it.
    """
    def loop() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5)) * 1000


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "n/a"


def fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more loop step of median length ends ``seconds`` after start."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """Set up and run, in turn, until ``seconds`` have passed.

    Set-up is timed before every run rather than in a block ahead of the
    loop, so that its median covers the same stretch of time as the runs'.
    """
    bench.setup()  # warm-up: fills the bytecode cache; not counted
    setups, runs, durations = [], [], []
    start = time.perf_counter()
    while not runs or fits(start, seconds, durations):
        t0 = time.perf_counter()
        setups.append(bench.setup())
        runs.append(bench.cluster_run())
        durations.append(time.perf_counter() - t0)
    wall = statistics.median(c.wall for c, _ in runs)
    print(f"runs: {len(runs)} (closed loop, one client, each after a timed set-up);"
          " times are medians")
    print("wall_s of each run: " + " ".join(f"{c.wall:.3f}" for c, _ in runs))
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(c.cpu for c, _ in runs),
        "lines_per_s": bench.input_lines / wall,
        "peak_rss_mb": statistics.median(c.rss_mb for c, _ in runs),
        "out_mb": statistics.median(mb for _, mb in runs),
        "setup_s": statistics.median(setups),
    }


def per_layer_units() -> dict[str, str]:
    units = {f"{span}_s": "s" for span in TIMED_SPANS}
    units.update(COUNT_UNITS)
    units.update({f"{layer}.share": "ratio" for layer in LAYERS})
    units.update({"trace.traced_wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


def measure_traced(bench: Bench, seconds: float) -> dict[str, float]:
    bench.setup()  # writes the records TSV where the workload clusters one
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    while not untraced or fits(start, seconds, durations):
        t0 = time.perf_counter()
        untraced.append(bench.cluster_run()[0].wall)
        run = bench.traced_run()
        if run is not None:
            traced.append(run)
        durations.append(time.perf_counter() - t0)
    if not traced:
        return {name: 0.0 for name in per_layer_units()}
    values: dict[str, float] = {}
    for span in TIMED_SPANS:
        values[f"{span}_s"] = statistics.median(t[0].get(span, 0.0) for t in traced)
    values.update(traced[0][1])
    layer_self = defaultdict(list)
    for selfs, _, root, _ in traced:
        for layer in LAYERS:
            layer_self[layer].append(sum(v for k, v in selfs.items()
                                         if k.split(".")[0] == layer) / root)
    for layer in LAYERS:
        values[f"{layer}.share"] = statistics.median(layer_self[layer])
    values["trace.traced_wall_s"] = statistics.median(t[3] for t in traced)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = values["trace.traced_wall_s"] / values["trace.untraced_wall_s"]
    print(f"runs: {len(untraced)} untraced and {len(traced)} traced, alternating; "
          "times are medians")
    print("self time by layer (share of the traced run):")
    for layer in sorted(LAYERS, key=lambda l: -values[f"{l}.share"]):
        print(f"  {layer:<11} {values[f'{layer}.share']:7.1%}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "commdir", "cli.py")):
        print(f"error: no commdir sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start_load, start_calibration = loadavg(), calibration_ms()
    directory = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    try:
        bench = Bench(args.workload, args.seed, directory)
        print(f"workload: {args.workload} seed {args.seed}: {json.dumps(bench.wl.params)}")
        print(f"command: commdir cluster {' '.join(bench.wl.cluster_flags)}"
              f" on {bench.input_lines} input lines")
        if args.trace:
            values = measure_traced(bench, args.seconds)
            units = per_layer_units()
        else:
            values = measure(bench, args.seconds)
            units = END_TO_END
        bench.final_checks()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"context: nproc={os.cpu_count()} python={platform.python_version()}"
          f" loadavg_start={start_load!r} loadavg_end={loadavg()!r}"
          f" calibration_ms_start={start_calibration:.1f}"
          f" calibration_ms_end={calibration_ms():.1f}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<34} {bench.failed / bench.attempted:>14.6g} ratio"
          f" ({bench.failed} of {bench.attempted} runs failed)")
    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(f"checks: {'all passed' if not bench.problems else 'FAILED'}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if bench.problems or bench.failed else 0


if __name__ == "__main__":
    sys.exit(main())
