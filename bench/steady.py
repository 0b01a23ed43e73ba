"""Steadiness of the benchmark: repeated runs, medians and quartiles.

    python3 bench/steady.py [--workloads build,ag-query,prf-query]
        [--seeds 1-10] [--trace]

Runs ``bench/run.py`` once per workload and seed, one run at a time, for
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end
metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median, next to the metric's bound.

With ``--trace`` each workload then gets TRACE_PAIRS pairs of runs on the
first seeds, an untraced run followed at once by a traced one, and the
tracing overhead is reported as the median over the pairs of the traced
run's end-to-end figures against the untraced run's. Every run's result
line is written to ``bench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "steady.json"
TRACE_PAIRS = 3
OVERHEAD_METRICS = ("op_p50_ms", "op_p90_ms", "ops_per_s")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    if trace:  # the traced run's own end-to-end figures head its span file
        header = json.loads((BENCH / "results" / f"trace-{workload}-seed{seed}.jsonl")
                            .read_text(encoding="utf-8").splitlines()[0])["header"]
        result.update(end_to_end=header["end_to_end"], probe_ms_per_op=header["probe_ms_per_op"])
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def tracing_overhead(workload: str, seeds: list[int], seconds: int, runs: list) -> dict:
    """Traced against untraced, over pairs of runs made one right after the other."""
    ratios: dict[str, list[float]] = {name: [] for name in OVERHEAD_METRICS}
    probes = []
    for seed in seeds[:TRACE_PAIRS]:
        plain = run_once(workload, seed, seconds, 0)
        traced = run_once(workload, seed, seconds, 1)
        runs.extend((plain, traced))
        for name in OVERHEAD_METRICS:
            ratios[name].append(traced["end_to_end"][name]["value"]
                                / plain["metrics"][name]["value"] - 1)
        probes.append(traced["probe_ms_per_op"])
        print(f"{workload} seed {seed}: traced/untraced op_p50_ms "
              f"{100 * ratios['op_p50_ms'][-1]:+.1f}%", file=sys.stderr)
    out = {name: {"pairs": values, "median": statistics.median(values)}
           for name, values in ratios.items()}
    out["probe_ms_per_op"] = statistics.median(probes)
    print("  tracing overhead, median of " + str(len(probes)) + " pairs: " + ", ".join(
        f"{name} {100 * out[name]['median']:+.1f}%" for name in OVERHEAD_METRICS)
        + f"; probes {out['probe_ms_per_op']:.3f} ms per operation")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="build,ag-query,prf-query")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    runs, report = [], {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, 0))
            r = results[-1]
            print(f"{workload} seed {seed}: {r['attempted']} ops, {r['failed']} failed, "
                  f"correct={r['correct']}, {r['wall_s']:.1f} s wall", file=sys.stderr)
        runs.extend(results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs of {seconds} s, failed share {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        report[workload] = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            report[workload][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  above bound/3"
            print(f"  {name:32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {bounds[name]:6.2f}{flag}", flush=True)
        if args.trace:
            report[workload]["trace_overhead"] = tracing_overhead(workload, seeds, seconds, runs)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"seconds": seconds, "seeds": seeds, "summary": report,
                               "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
