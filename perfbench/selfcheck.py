#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks, in about a minute:

* ``BENCHMARK.json`` declares exactly the metrics ``run.py`` reports;
* every workload, traced and untraced, runs with ``--seconds 1``, prints
  every metric by name with its unit, and ends with the result line;
* no operation fails (``fail_ratio`` is 0);
* the same seed gives the same input digest, and another seed another one;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def invoke(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    problems: list[str] = []
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [(m["name"], m["unit"]) for m in config["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in config["per_layer"]],
    }
    if declared[0] != list(run.END_TO_END):
        problems.append("end_to_end in BENCHMARK.json differs from run.py")
    if declared[1] != list(run.PER_LAYER):
        problems.append("per_layer in BENCHMARK.json differs from run.py")
    if [w["name"] for w in config["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.py")

    digests = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = invoke(ROOT, workload, 1, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: fail_ratio is not 0: "
                                f"{proc.stderr.strip()[-300:]}")
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != declared[trace]:
                problems.append(f"{where}: metric names or units differ")
            for name, unit in declared[trace]:
                if not any(line.strip().startswith(f"{name} = ")
                           and f" {unit}" in line for line in lines[:-1]):
                    problems.append(f"{where}: {name} not printed with {unit}")
            digest = next(line.split("digest=")[1].split()[0]
                          for line in lines if line.startswith("inputs:"))
            digests.setdefault(workload, set()).add(digest)

    sys.path.insert(0, str(run.SRC))
    import boxlab
    import boxlab.cli
    lib = SimpleNamespace(scenario=boxlab.scenario,
                          witnesses=boxlab.witnesses, cli=boxlab.cli)
    (HERE / ".work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=HERE / ".work"))
    try:
        env = run.child_env()
        for workload in run.WORKLOADS:
            first, again, other = (
                run.input_digest(workload, seed, lib,
                                 tempfile.mkdtemp(dir=tmp), env)
                for seed in (1, 1, 2))
            if first != again or digests.get(workload, {first}) != {first}:
                problems.append(f"{workload}: one seed, two input digests")
            if first == other:
                problems.append(f"{workload}: two seeds, one input digest")

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = invoke(bare, run.WORKLOADS[0], 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the sources, run.py did not fail "
                            "cleanly")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("ok" if not problems else
                           f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
