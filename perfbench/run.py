#!/usr/bin/env python3
"""Benchmark of boxlab: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The workloads are ``analyze-lp``, ``classify-search`` and ``cli-pipeline``
(see ``perfbench/README.md``).  Each run is a closed loop with one caller:
it sets up, warms up on a seed stream disjoint from the measured one, then
issues operations for ``--seconds`` seconds and checks every output.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the library's public functions from outside (``tracing.py``) and
reports the per-layer metrics instead.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pace
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("analyze-lp", "classify-search", "cli-pipeline")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 9
#: Warm-up operations, drawn from the warm-up seed stream.
WARM_OPS = 3
#: Operations of the measured stream that the input digest covers.
DIGEST_OPS = 24
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_LAYER_CALLS_TOTAL = (
    "decompose.nc_membership", "decompose.contextual_fraction",
    "decompose.peres_strength", "decompose.bell_local_membership",
    "quantum.box_from_state", "quantum.rationalize_box",
    "scenario.box_from_json_dict", "scenario.box_to_json_dict", "cli.main",
)
_KNOWN_BOXES = ("noise", "noisy_1_4", "noisy_1_3", "uniform")

PER_LAYER = (
    ("decompose.min_nc_dimension.calls", "count"),
    ("decompose.min_nc_dimension.total_s", "s"),
    ("decompose.min_nc_dimension.nodes", "count"),
    ("decompose.min_nc_dimension.exact_ratio", "ratio"),
    ("decompose.min_nc_dimension.cache_hits", "count"),
    ("decompose.min_lhv_dimension.calls", "count"),
    ("decompose.min_lhv_dimension.total_s", "s"),
    ("decompose.min_lhv_dimension.nodes", "count"),
    *((f"{name}.{field}", unit) for name in _LAYER_CALLS_TOTAL
      for field, unit in (("calls", "count"), ("total_s", "s"))),
    ("exactlp.solve.calls", "count"),
    ("exactlp.solve.total_s", "s"),
    ("exactlp.solve.infeasible", "count"),
    ("exactlp.solve.per_classify", "count"),
    ("witnesses.classify.calls", "count"),
    ("witnesses.classify.total_s", "s"),
    ("witnesses.classify.self_s", "s"),
    ("witnesses.sdi_contextuality_check.total_s", "s"),
    ("witnesses.report_to_json_dict.total_s", "s"),
    ("witnesses.report_to_csv_row.total_s", "s"),
    ("vertices.enumerate_nc_vertices.cold_s", "s"),
    ("setup.import_s", "s"),
    ("cli.startup_s", "s"),
    *((f"check.{name}.{field}", "count") for name in _KNOWN_BOXES
      for field in ("nodes", "lp_calls")),
    ("trace.ops", "count"),
    ("trace.op_p50_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_us", "us"),
    ("trace.overhead_share", "ratio"),
)

#: Layers each workload must reach; zero calls to one fails the traced run.
REQUIRED_LAYERS = {
    "analyze-lp": (
        "witnesses.classify", "decompose.contextual_fraction",
        "decompose.peres_strength", "decompose.bell_local_membership",
        "witnesses.sdi_contextuality_check", "exactlp.solve",
        "witnesses.report_to_json_dict", "witnesses.report_to_csv_row"),
    "classify-search": (
        "witnesses.classify", "decompose.contextual_fraction",
        "decompose.peres_strength", "decompose.bell_local_membership",
        "decompose.min_nc_dimension", "decompose.min_lhv_dimension",
        "decompose.nc_membership", "exactlp.solve",
        "witnesses.report_to_json_dict", "witnesses.report_to_csv_row"),
    "cli-pipeline": (
        "cli.main", "witnesses.classify", "decompose.contextual_fraction",
        "exactlp.solve", "quantum.box_from_state", "quantum.rationalize_box",
        "scenario.box_from_json_dict", "scenario.box_to_json_dict",
        "witnesses.report_to_json_dict", "witnesses.report_to_csv_row"),
}

#: Counts of the fixed boxes at the commit that introduced this benchmark.
KNOWN_COUNTS = {
    "noise": {"dimension": 4, "status": "exact", "nodes": 47},
    "noisy_1_4": {"dimension": 9, "status": "exact", "nodes": 38854},
    "noisy_1_3": {"dimension": 8, "status": "exact", "nodes": 28987},
    "uniform": {"dimension": 7, "status": "lower-bound-only", "nodes": 0},
}

_SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import boxlab\n"
    "t1 = time.perf_counter()\n"
    "boxlab.enumerate_nc_vertices()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)


class HarnessError(RuntimeError):
    """The benchmark itself found a broken rule (not a program failure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BOXLAB_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class SetupProbes:
    """Fresh interpreters doing ``import boxlab`` and the first vertex
    enumeration, spread evenly over the measured window.

    The machine changes speed within a run, so probes taken all at once
    would sample one state; spread out, their median follows the same
    states as the operations.  Each probe's wall time is scaled by the
    reference children run near it (``pace.ChildPacer``), once
    :meth:`finish` has taken the last reference.  One untimed probe first
    fills the bytecode caches.
    """

    def __init__(self, env: dict, seconds: float,
                 child: pace.ChildPacer) -> None:
        self.command = [sys.executable, "-c", _SETUP_PROBE]
        self.env = env
        self.child = child
        self.due = [(j + 0.5) * seconds / SETUP_RUNS
                    for j in range(SETUP_RUNS)]
        self.spans: list[tuple[float, float]] = []
        self.imports: list[float] = []
        self.enums: list[float] = []
        self._probe()
        self.spans.clear()
        self.imports.clear()
        self.enums.clear()

    def _probe(self) -> None:
        self.child.due()
        start = perf_counter()
        proc = subprocess.run(self.command, cwd=ROOT, env=self.env,
                              check=True, capture_output=True, timeout=120)
        self.spans.append((start, perf_counter()))
        import_s, enum_s = map(float, proc.stdout.split())
        self.imports.append(import_s)
        self.enums.append(enum_s)

    def poll(self, elapsed: float) -> None:
        """Take the probes due by ``elapsed`` seconds into the window."""
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self._probe()

    def finish(self) -> dict:
        while self.due:
            self.due.pop(0)
            self._probe()
        self.child.sample()
        return {"setup_s": statistics.median(self.child.scale(*span)
                                             for span in self.spans),
                "setup_raw_s": statistics.median(end - start
                                                 for start, end in self.spans),
                "import_s": statistics.median(self.imports),
                "enum_cold_s": statistics.median(self.enums)}


def known_counts(env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "known_counts.py")],
                          cwd=ROOT, env=env, check=True, capture_output=True,
                          timeout=170)
    return json.loads(proc.stdout)


def check_known(counts: dict) -> list[str]:
    """Semantic checks on the fixed boxes; counts are reported, not judged."""
    problems = []
    minima = {"noise": 4, "noisy_1_4": 9, "noisy_1_3": 8, "uniform": 8}
    for name, true_minimum in minima.items():
        got = counts[name]
        if got["status"] == "exact":
            ok = got["dimension"] == true_minimum
        else:
            ok = (got["status"] == "lower-bound-only"
                  and got["dimension"] < true_minimum)
        if not ok:
            problems.append(f"known box {name}: {got}")
    return problems


def machine_facts() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "boxlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND          # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n


def make_workload(name: str, lib, workdir: str, env: dict):
    if name == "analyze-lp":
        return workloads.AnalyzeLp(lib)
    if name == "classify-search":
        return workloads.ClassifySearch(lib)
    return workloads.CliPipeline(lib, workdir, env)


def input_digest(name: str, seed: int, lib, workdir: str, env: dict) -> str:
    workload = make_workload(name, lib, workdir, env)
    ops = workload.ops(random.Random(f"{name}/measure/{seed}"), set())
    digest = hashlib.sha256()
    for op in itertools.islice(ops, DIGEST_OPS):
        digest.update(op.digest.encode() + b"\n")
    return digest.hexdigest()


class Runner:
    """Executes operations, times them and keeps the failures.

    In-process operations run under a ``pace.Pacer`` (which samples only
    around them in a traced run), and ``latencies`` and
    ``traced_latencies`` hold their times scaled to the reference loop's
    nominal speed.  CLI subprocesses are timed between the reference
    children of ``child``; ``latencies`` holds their scaled times after
    :meth:`finish`.
    """

    def __init__(self, lib, tracer, cli: bool,
                 child: pace.ChildPacer) -> None:
        self.lib = lib
        self.tracer = tracer
        self.cli = cli
        self.pacer = None if cli else pace.Pacer(inside=tracer is None)
        self.child = child
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.startups: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def execute(self, index: int, op, timed: bool = True) -> None:
        self.attempted += 1
        tracer = self.tracer
        in_process_traced = tracer is not None and not self.cli
        if in_process_traced:
            tracer.op = index
            tracer.recording = True
        pacer = self.pacer if timed else None
        if pacer is not None:
            pacer.begin()
        elif timed:
            self.child.due()
        start = perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:   # an operation that raises has failed
            result, error = None, exc
        end = perf_counter()
        elapsed = end - start
        if in_process_traced:
            tracer.recording = False
        if pacer is not None:
            pacer.end(elapsed)
            self.latencies.append(pacer.scaled[-1])
            if in_process_traced:
                self.traced_latencies.append(pacer.scaled[-1])
        elif timed:
            self.spans.append((start, end))
        if error is not None:
            self.fail(op, f"raised {type(error).__name__}: {error}")
            return
        if tracer is not None and self.cli:
            tracer.op = index
            first = len(tracer.spans)
            tracer.recording = True
            start = perf_counter()
            try:
                again = workloads.run_cli_inprocess(self.lib, op.argv)
            except Exception as exc:
                tracer.recording = False
                self.fail(op, f"in-process main raised {exc!r}")
                return
            traced = perf_counter() - start
            tracer.recording = False
            main_span = tracer.spans[first]
            if timed:
                self.traced_latencies.append(traced)
                self.startups.append(elapsed
                                     - (main_span.end - main_span.start))
            if again[:2] != result[:2]:
                self.fail(op, "in-process main differs from the subprocess")
                return
        try:
            op.check(result)
        except Exception as exc:   # a failed check, or a crash in one
            self.fail(op, f"{type(exc).__name__}: {exc}")

    def fail(self, op, message: str) -> None:
        self.failures.append(f"{op.kind}: {message}")

    def finish(self) -> None:
        """Scale the CLI times, after the last reference child."""
        if self.cli:
            self.latencies = [self.child.scale(*span) for span in self.spans]


def run(args) -> int:
    if not (SRC / "boxlab" / "__init__.py").is_file():
        print(f"error: boxlab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("BOXLAB_BUDGET", None)
    sys.path.insert(0, str(SRC))
    import boxlab
    import boxlab.cli
    lib = SimpleNamespace(scenario=boxlab.scenario,
                          witnesses=boxlab.witnesses, cli=boxlab.cli)

    name, seed, seconds, traced = (args.workload, args.seed, args.seconds,
                                   args.trace == 1)
    env = child_env()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=HERE / ".work")
    tracer = None
    try:
        facts = machine_facts()
        digest = input_digest(name, seed, lib,
                              tempfile.mkdtemp(prefix="digest-", dir=workdir),
                              env)
        workload = make_workload(name, lib, workdir, env)
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        child = pace.ChildPacer(ROOT, env)
        runner = Runner(lib, tracer, name == "cli-pipeline", child)
        probes = SetupProbes(env, seconds, child)

        seen: set = set()
        warm_keys = set()
        warm = workload.ops(random.Random(f"{name}/warmup/{seed}"), seen,
                            warm=True)
        for op in itertools.islice(warm, WARM_OPS):
            warm_keys.add(op.key)
            runner.execute(-1, op, timed=False)
        warm_keys.discard(None)
        if tracer is not None:
            tracer.spans.clear()

        # A traced run covers at least one whole cycle of input kinds, so
        # that every layer the workload must reach is reached.
        minimum_ops = workload.cycle if traced else 1
        measured_keys: set = set()
        repeats = 0
        kinds: dict[str, int] = {}
        start = perf_counter()
        for index, op in enumerate(workload.ops(
                random.Random(f"{name}/measure/{seed}"), seen)):
            if op.key is None:
                repeats += op.kind == "repeat"
            elif op.key in measured_keys or op.key in warm_keys:
                raise HarnessError(f"undeclared repeat of an input ({op.kind})")
            else:
                measured_keys.add(op.key)
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            runner.execute(index, op)
            elapsed = perf_counter() - start
            probes.poll(elapsed)
            if index + 1 >= minimum_ops and elapsed >= seconds:
                break
        setup = probes.finish()
        runner.finish()
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = runner.latencies
    measured = len(latencies)
    attempted = runner.attempted     # warm-up operations are checked too
    failed = len(runner.failures)
    tail_value, tail_pct = tail(latencies)
    who = (resource.RUSAGE_CHILDREN if name == "cli-pipeline"
           else resource.RUSAGE_SELF)
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    busy = sum(latencies)

    out = print
    out(f"boxlab benchmark: workload={name} seed={seed} seconds={seconds} "
        f"trace={int(traced)}")
    out("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    out(f"inputs: digest={digest} mix={json.dumps(kinds, sort_keys=True)} "
        f"declared_repeats={repeats} distinct={len(measured_keys)}")
    pacer = runner.pacer
    raw = pacer.raw if pacer else [end - start for start, end in runner.spans]
    inside = sum(raw)
    out(f"loop: closed, 1 caller, {measured} ops in {wall:.3f} s wall, "
        f"{inside:.3f} s inside operations")
    if pacer is not None:
        ms = [v * 1e3 for v in pacer.loops]
        out(f"pace: reference loop median {statistics.median(ms):.4f} ms "
            f"(from {min(ms):.4f} to {max(ms):.4f}, n={len(ms)}); "
            f"operation times below are scaled to "
            f"{pace.NOMINAL_S * 1e3:g} ms per loop")
    children = [v for _, v in runner.child.samples]
    out(f"pace: reference child median {statistics.median(children):.4f} s "
        f"(from {min(children):.4f} to {max(children):.4f}, "
        f"n={len(children)}); {'set-up and CLI' if runner.cli else 'set-up'}"
        f" times below are scaled to {pace.CHILD_NOMINAL_S:g} s per child")
    out(f"as measured{', without the loops' if pacer else ''}: "
        f"op_p50_s={statistics.median(raw)} op_tail_s={tail(raw)[0]} "
        f"ops_per_s={measured / inside} "
        f"setup_s={setup['setup_raw_s']}")
    baseline_path = HERE / "baseline.json"
    if baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
        out(f"baseline ({baseline.get('commit', '?')}): "
            + json.dumps(baseline.get("workloads", {}).get(name, {}),
                         sort_keys=True))
    for message in runner.failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)

    problems = []
    if traced:
        agg = tracing.aggregate(tracer.spans)
        missing = [layer for layer in REQUIRED_LAYERS[name]
                   if agg["layers"].get(layer, {}).get("calls", 0) == 0]
        if missing:
            raise tracing.TraceError(
                f"{name} recorded no calls to {', '.join(missing)}")
        counts = known_counts(env)
        problems = check_known(counts)
        metrics = layer_metrics(agg, counts, setup, runner, tracer,
                                tracing.span_cost_us())
        out("per-layer (traced run; one caller and no queue, so no layer "
            "has a wait time to report):")
        for metric, unit in PER_LAYER:
            out(f"  {metric} = {metrics[metric]} {unit}")
        for box, got in counts.items():
            same = all(got[k] == v for k, v in KNOWN_COUNTS[box].items())
            out(f"  known box {box}: {json.dumps(got, sort_keys=True)} "
                f"({'matches' if same else 'differs from'} the counts this "
                "benchmark was introduced with)")
        units = dict(PER_LAYER)
    else:
        paced = (", scaled to the reference loop" if pacer else
                 ", scaled to the reference child")
        metrics = {
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "ops_per_s": measured / busy,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_mb,
        }
        notes = {
            "op_p50_s": f"median, n={measured}{paced}",
            "op_tail_s": f"p{tail_pct:.1f}, n={measured}, "
                         f"{min(TAIL_BEYOND, measured - 1)} beyond{paced}",
            "ops_per_s": f"{measured} ops / {busy:.3f} s{paced}",
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters spread "
                       "over the run, scaled to the reference child",
            "peak_rss_mb": ("largest CLI subprocess" if name == "cli-pipeline"
                            else "this process"),
        }
        for metric, unit in END_TO_END:
            out(f"{metric} = {metrics[metric]} {unit} ({notes[metric]})")
        units = dict(END_TO_END)
    out(f"fail_ratio = {failed}/{attempted} = {failed / attempted} "
        "(warm-up included; reported as 'failed' below)")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }, sort_keys=False))
    return 0


def layer_metrics(agg, counts, setup, runner, tracer, span_cost) -> dict:
    layers = agg["layers"]

    def get(layer, field):
        return layers.get(layer, {}).get(field, 0)

    nc, lhv = agg["searches"]["nc"], agg["searches"]["lhv"]
    classify_calls = get("witnesses.classify", "calls")
    spans = len(tracer.spans)
    traced_time = sum(runner.traced_latencies)
    m = {
        "decompose.min_nc_dimension.calls":
            get("decompose.min_nc_dimension", "calls"),
        "decompose.min_nc_dimension.total_s":
            get("decompose.min_nc_dimension", "total_s"),
        "decompose.min_nc_dimension.nodes": nc["nodes"],
        "decompose.min_nc_dimension.exact_ratio": nc["exact_ratio"],
        "decompose.min_nc_dimension.cache_hits": nc["cache_hits"],
        "decompose.min_lhv_dimension.calls":
            get("decompose.min_lhv_dimension", "calls"),
        "decompose.min_lhv_dimension.total_s":
            get("decompose.min_lhv_dimension", "total_s"),
        "decompose.min_lhv_dimension.nodes": lhv["nodes"],
        "exactlp.solve.calls": get("exactlp.solve", "calls"),
        "exactlp.solve.total_s": get("exactlp.solve", "total_s"),
        "exactlp.solve.infeasible": agg["solve_infeasible"],
        "exactlp.solve.per_classify":
            agg["solve_in_classify"] / classify_calls if classify_calls else 0,
        "witnesses.classify.calls": classify_calls,
        "witnesses.classify.total_s": get("witnesses.classify", "total_s"),
        "witnesses.classify.self_s": get("witnesses.classify", "self_s"),
        "witnesses.sdi_contextuality_check.total_s":
            get("witnesses.sdi_contextuality_check", "total_s"),
        "witnesses.report_to_json_dict.total_s":
            get("witnesses.report_to_json_dict", "total_s"),
        "witnesses.report_to_csv_row.total_s":
            get("witnesses.report_to_csv_row", "total_s"),
        "vertices.enumerate_nc_vertices.cold_s": setup["enum_cold_s"],
        "setup.import_s": setup["import_s"],
        "cli.startup_s": (statistics.median(runner.startups)
                          if runner.startups else 0),
        "trace.ops": len(runner.traced_latencies),
        "trace.op_p50_s": statistics.median(runner.traced_latencies),
        "trace.spans": spans,
        "trace.span_cost_us": span_cost,
        "trace.overhead_share": (spans * span_cost * 1e-6 / traced_time
                                 if traced_time else 0),
    }
    for layer in _LAYER_CALLS_TOTAL:
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.total_s"] = get(layer, "total_s")
    for box in _KNOWN_BOXES:
        m[f"check.{box}.nodes"] = counts[box]["nodes"]
        m[f"check.{box}.lp_calls"] = counts[box]["lp_calls"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
