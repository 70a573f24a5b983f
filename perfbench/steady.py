"""Steadiness mode: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Run from the repository root. Each of the two sets runs every workload once
per seed (set one on seeds 1..N, set two on seeds 101..100+N), interleaving
the workloads, with the command, run length and bounds of ``BENCHMARK.json``.
For each workload and end-to-end metric it prints both sets' medians and
quartile spreads (distance between the first and third quartile, as a
share of the median), whether each spread is within the metric's bound,
and whether the two medians agree within it. A metric is steady when both
spreads and the change of median are within its bound; ``setup_s`` is held
to this too. Raw results are saved under ``.bench_work/``. Exits 1 when any
run fails its checks or a metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run's JSON result; a run whose checks failed still has one."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode} without a result: "
                           f"{proc.stderr[-500:]}") from None


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set (default 10)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    command = [sys.executable if c == "python3" else c for c in bench["command"]]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(2):
        for w in workloads:
            results[w].append([])
        for i in range(args.runs):
            for w in workloads:
                seed = 100 * s + i + 1
                res = run_once(command, w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    saved = os.path.join(ROOT, ".bench_work", f"steady-{int(time.time())}.json")
    with open(saved, "w", encoding="utf-8") as f:
        json.dump(results, f)
    print(f"raw results: {saved}")

    ok = True
    for w in workloads:
        sets = results[w]
        if not all(r["correct"] and not r["failed"] for runs in sets for r in runs):
            print(f"{w}: some runs failed their checks")
            ok = False
        print(f"{w}:")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= bound
            steady = agree and all(sp <= bound for sp in spreads)
            print(f"  {name:<12} bound {bound:<5} medians "
                  + " / ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " / ".join(f"{sp:.3f}" for sp in spreads)
                  + f"  change {change:+.3f} {'agree' if agree else 'DISAGREE'}"
                  + ("" if steady else "  NOT STEADY"))
            ok = ok and steady
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
