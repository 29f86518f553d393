#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/all.py [--seeds 1 2 3] [--seconds 30] [--traced]
                             [--workloads NAME ...] [--json PATH]
                             [--baseline PATH]

For each workload and seed this runs ``perfbench/run.py --trace 0`` and
prints, per end-to-end metric with its unit, the median over seeds, the
quartiles and the spread (interquartile range over median) next to the bound
in ``BENCHMARK.json``.  With ``--traced`` it also makes one traced run per
workload, on the first seed, and reports the tracing overhead: the traced
median operation time against the untraced one.  Exits 1 if any run reports
a failed operation.  ``--baseline`` writes the medians, quartiles and
spreads, the traced run's metrics and the machine facts in the form of
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", help="write every run's result here")
    parser.add_argument("--baseline",
                        help="write the summary as a baseline file here")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("the spread needs at least two seeds")

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record: dict = {"seconds": args.seconds, "seeds": args.seeds, "runs": {}}
    summary: dict = {}
    failed = False
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            failed |= result["failed"] > 0 or not result["correct"]
            results.append(result)
            print(f"{workload} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items()), flush=True)
        record["runs"][workload] = results
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median, q1, q3, share = spread(values)
            summary.setdefault(workload, {
                "attempted_median": statistics.median(
                    r["attempted"] for r in results)})[metric] = {
                "median": round(median, 6), "q1": round(q1, 6),
                "q3": round(q3, 6), "spread": round(share, 4), "unit": unit}
            verdict = "ok" if share < bound / 3 else (
                "within bound" if share < bound else "TOO WIDE")
            print(f"  {workload:16s} {metric:12s} median={median:.6g} {unit} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={share:.4f} "
                  f"bound={bound} {verdict}", flush=True)
        if args.traced:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            failed |= traced["failed"] > 0 or not traced["correct"]
            record.setdefault("traced", {})[workload] = traced
            untraced = results[0]["metrics"]["op_p50_s"]["value"]
            layer = traced["metrics"]
            # The traced cli-pipeline call is the in-process cli.main, not
            # the subprocess, so only the estimate applies there.
            measured = ("" if workload == "cli-pipeline" else
                        f"traced op median "
                        f"{layer['trace.op_p50_s']['value']:.6g} s vs "
                        f"untraced {untraced:.6g} s (seed {args.seeds[0]}); ")
            print(f"  {workload:16s} tracing overhead: {measured}estimated "
                  f"share {layer['trace.overhead_share']['value']:.3g} "
                  f"({layer['trace.spans']['value']} spans x "
                  f"{layer['trace.span_cost_us']['value']:.3g} us)",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    if args.baseline:
        sys.path.insert(0, str(HERE))
        import run
        facts = run.machine_facts()
        baseline = {
            "commit": facts["commit"][:7],
            "machine": facts,
            "note": f"medians, quartiles and spreads over seeds "
                    f"{args.seeds[0]}-{args.seeds[-1]}, one "
                    f"{args.seconds:g} s run per seed with --trace 0; "
                    f"'traced' is one --trace 1 run on seed {args.seeds[0]}",
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "workloads": summary,
        }
        if "traced" in record:
            baseline["traced"] = {
                w: {k: round(v["value"], 6) for k, v in
                    sorted(r["metrics"].items())}
                for w, r in record["traced"].items()}
        Path(args.baseline).write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
