"""The three workloads: seeded inputs, one timed operation each, and checks.

A workload yields :class:`Op` objects from a seeded random stream.  The
benchmark times ``Op.run`` and then calls ``Op.check`` on its result outside
the timed region; a check raises :class:`CheckFailed` when the output differs
from what the generator knows about the input.  Ops follow a fixed repeating
pattern of input kinds, so every run, whatever its seed or length, measures
the same mix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import model

#: Explicit node budget of every search in ``classify-search``.
SEARCH_BUDGET = 200_000

_F = Fraction


class CheckFailed(Exception):
    """An operation's output disagrees with what its input implies."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check(result)`` is not.

    ``key`` identifies the input for the distinctness rule; it is None for a
    declared repeat.  ``digest`` describes the input for the input digest.
    ``argv`` is set for CLI operations.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    key: object
    digest: str
    argv: tuple[str, ...] | None = None


def _fresh(rng, seen: set, make):
    """Draw ``make(rng)`` until its key is new, then claim the key."""
    while True:
        item = make(rng)
        if item[0] not in seen:
            seen.add(item[0])
            return item


# ---------------------------------------------------------------------------
# Checks shared by the in-process workloads
# ---------------------------------------------------------------------------

def _vid_bits(vid) -> tuple[int, ...]:
    return (vid.alpha, vid.beta, vid.gamma, vid.epsilon, vid.d, vid.e)


def check_nc_decomposition(dec, box) -> None:
    weights = [w for _, w in dec.terms]
    expect(all(w > 0 for w in weights) and sum(weights) == 1,
           "decomposition weights are not a probability vector")
    expect(len({vid for vid, _ in dec.terms}) == len(dec.terms),
           "decomposition repeats a vertex")
    rebuilt = model.mix([(w, model.VERTEX_BY_BITS[_vid_bits(vid)])
                         for vid, w in dec.terms])
    expect(rebuilt == box, "decomposition does not rebuild the box")


def check_lhv_decomposition(dec, box) -> None:
    weights = [w for _, w in dec.terms]
    expect(all(w > 0 for w in weights) and sum(weights) == 1,
           "local decomposition weights are not a probability vector")
    rebuilt = model.mix_local([(vid.label, w) for vid, w in dec.terms])
    expect(rebuilt == model.bell_marginal(box),
           "local decomposition does not rebuild the Bell marginal")


def check_report(lib, box, result, skip_dims: bool):
    """Checks every classified box passes; returns the report."""
    report, rendered, row = result
    expect(report.ncf + report.cost == 1, "ncf + cost != 1")
    expect(report.contextual == (report.cost > 0),
           "contextual flag disagrees with the cost")
    expect(report.inequality_lhs == model.inequality(box),
           "inequality value is wrong")
    expect(rendered["cost"] == str(report.cost)
           and rendered["noncontextual_fraction"] == str(report.ncf)
           and rendered["inequality_lhs"] == str(report.inequality_lhs),
           "JSON rendering disagrees with the report")
    columns = lib.witnesses.CSV_COLUMNS
    expect(len(row) == len(columns)
           and row[columns.index("cost")] == str(report.cost)
           and row[columns.index("ncf")] == str(report.ncf),
           "CSV rendering disagrees with the report")
    if skip_dims:
        expect(report.min_nc_dim is None and report.min_lhv_dim is None,
               "skip_dims still ran a dimension search")
        return report
    nc = report.min_nc_dim
    if nc is not None:
        dim_json = rendered["noncontextual_model"]["min_dimension"]
        expect(dim_json["dimension"] == nc.dimension
               and dim_json["nodes_used"] == nc.nodes_used
               and dim_json["status"] == nc.status,
               "JSON rendering of the search disagrees with the report")
        if nc.status == "exact":
            check_nc_decomposition(nc.decomposition, box)
            expect(nc.decomposition.size == nc.dimension,
                   "exact dimension differs from its decomposition size")
        else:
            expect(nc.status == "lower-bound-only"
                   and nc.decomposition is None,
                   f"unknown search status {nc.status!r}")
    lhv = report.min_lhv_dim
    if lhv is not None and lhv.status == "exact":
        check_lhv_decomposition(lhv.decomposition, box)
        expect(lhv.decomposition.size == lhv.dimension,
               "exact local dimension differs from its decomposition size")
    return report


def _classify_op(lib, kind, box, check_extra, digest, budget=None,
                 skip_dims=False) -> Op:
    """Op that classifies one box and renders it as JSON and as a CSV row.

    The library functions are looked up at call time, so traced bindings
    take effect.
    """
    validated = lib.scenario.validate_box(box)
    witnesses = lib.witnesses

    def run():
        report = witnesses.classify(validated, budget=budget,
                                    skip_dims=skip_dims)
        return (report, witnesses.report_to_json_dict(report),
                witnesses.report_to_csv_row(report))

    def check(result):
        report = check_report(lib, box, result, skip_dims)
        check_extra(report)

    return Op(kind, run, check, box, digest)


# ---------------------------------------------------------------------------
# analyze-lp
# ---------------------------------------------------------------------------

def peres_mixture(rng, low=_F(0), high=_F(1), parity=model.PERES):
    """p*parity + (1-p)*(u*UNIFORM + (1-u)*random k-vertex mixture).

    ``p`` lies strictly inside (low, high).  The box has full support (the
    uniform part is positive everywhere), so every vertex survives the
    support filter.  Returns (box, p).
    """
    p = model.rational_in(rng, low, high, 10, 40)
    u = model.rational_in(rng, _F(1, 4), _F(3, 4), 4, 12)
    inner, _ = model.vertex_mixture(rng, rng.randint(2, 6))
    box = model.mix([(p, parity), ((1 - p) * u, model.UNIFORM),
                     ((1 - p) * (1 - u), inner)])
    return box, p


class AnalyzeLp:
    """``classify(box, skip_dims=True)`` plus JSON and CSV rendering.

    ``p`` cycles through eight strata of (0, 1), so every run sees the same
    spread of LPs.  In strata 5 and 7 the box mixes in the relabelled parity
    box instead, and the Peres-strength LP is infeasible (phase 1 only); on
    the others it is feasible (phase 2).
    """

    name = "analyze-lp"
    strata = 8
    cycle = strata

    def __init__(self, lib) -> None:
        self.lib = lib

    def ops(self, rng, seen: set, warm: bool = False):
        n = 0
        while True:
            low = _F(n % self.strata, self.strata)
            flipped = n % self.strata in (5, 7)
            kind = "flipped-mixture" if flipped else "peres-mixture"
            parity = model.FLIPPED if flipped else model.PERES
            box, p = _fresh(rng, seen, lambda r: peres_mixture(
                r, low, low + _F(1, self.strata), parity))
            n += 1

            def extra(report, p=p, flipped=flipped):
                expect(report.cost <= p, "cost above the parity weight")
                expect(flipped or (report.peres_strength is not None
                                   and report.peres_strength >= p),
                       "peres_strength below the mixed-in parity weight")

            yield _classify_op(self.lib, kind, box, extra,
                               f"{kind} p={p} {box}", skip_dims=True)


# ---------------------------------------------------------------------------
# classify-search
# ---------------------------------------------------------------------------

def noisy_draw(rng):
    """A noisy parity box with W in (0, 1/3): (box, W)."""
    w = model.rational_in(rng, _F(0), _F(1, 3), 5, 60)
    return model.noisy(w), w


class ClassifySearch:
    """Full ``classify(box, budget=SEARCH_BUDGET)`` on noncontextual boxes.

    The run opens with the three quantum boxes, then repeats a pattern of ten
    operations: eight noisy parity boxes (W in (0, 1/3), denominators 5..60),
    one random k-vertex mixture (k drawn from 4..8) and one slot that
    alternates between a 10..12-vertex mixture, which usually exhausts the
    budget, and a declared repeat of an earlier box of the run (5% of
    operations).  The noisy boxes dominate, as the minimal-dimension search
    dominates their time.  Every other input is cheaper than a noisy box,
    and a 30-second run holds about 22 operations, so the median and the
    tail both fall well inside the noisy boxes whatever the seed.
    """

    name = "classify-search"
    pattern = ("noisy", "noisy", "noisy", "mix", "noisy", "noisy", "noisy",
               "noisy", "other", "noisy")
    cycle = 3 + len(pattern)

    def __init__(self, lib) -> None:
        self.lib = lib

    def _noisy(self, rng, seen):
        box, w = _fresh(rng, seen, noisy_draw)

        def extra(report, w=w):
            expect(report.cost == model.noisy_cost(w), "noisy cost is wrong")
            expect(report.peres_strength == model.noisy_peres_strength(w),
                   "noisy peres_strength is wrong")
            expect(report.inequality_lhs == model.noisy_inequality(w),
                   "noisy inequality value is wrong")
            expect(report.min_nc_dim.status == "exact",
                   "noisy box search did not finish within the budget")

        return self._op("noisy", box, extra, f"noisy W={w}")

    def _mix(self, rng, seen, k, kind="mix"):
        box, terms = _fresh(rng, seen, lambda r: model.vertex_mixture(r, k))

        def extra(report, k=k):
            nc = report.min_nc_dim
            if nc.status == "exact":
                expect(nc.dimension <= k,
                       f"exact dimension {nc.dimension} above k={k}")
            else:
                expect(nc.dimension < k,
                       f"lower bound {nc.dimension} not below k={k}")

        return self._op(kind, box, extra, f"{kind} k={k} {terms}")

    def _quantum(self, name, seen):
        box, dimension = model.QUANTUM[name]
        seen.add(box)

        def extra(report, dimension=dimension):
            nc = report.min_nc_dim
            expect(nc.status == "exact" and nc.dimension == dimension,
                   f"{name}: expected exact dimension {dimension}")

        return self._op("quantum", box, extra, f"quantum {name}")

    def _op(self, kind, box, extra, digest):
        def check_all(report):
            expect(not report.contextual and report.min_nc_dim is not None,
                   "noncontextual box reported contextual")
            expect(report.marginal_local and report.min_lhv_dim is not None,
                   "Bell marginal of a noncontextual box reported nonlocal")
            extra(report)

        return _classify_op(self.lib, kind, box, check_all, digest,
                            budget=SEARCH_BUDGET)

    def ops(self, rng, seen: set, warm: bool = False):
        if warm:
            for k in (4, 5, 6):
                yield self._mix(rng, seen, k)
            return
        done: list[Op] = []
        names = sorted(model.QUANTUM)
        rng.shuffle(names)
        for name in names:
            op = self._quantum(name, seen)
            done.append(op)
            yield op
        others = 0
        for slot in itertools.cycle(self.pattern):
            if slot == "noisy":
                op = self._noisy(rng, seen)
            elif slot == "mix":
                op = self._mix(rng, seen, rng.randint(4, 8))
            elif others % 2 == 0:
                op = self._mix(rng, seen, rng.randint(10, 12), "exhaust")
            else:
                original = rng.choice(done)
                op = Op("repeat", original.run, original.check, None,
                        "repeat " + original.digest)
            others += slot == "other"
            if op.key is not None:
                done.append(op)
            yield op


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

def run_cli_subprocess(argv, cwd: str, env: dict) -> tuple[int, str, str]:
    """``python -m boxlab.cli argv`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "boxlab.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=120)
    return (proc.returncode, proc.stdout.decode("utf-8"),
            proc.stderr.decode("utf-8"))


def run_cli_inprocess(lib, argv) -> tuple[int, str, str]:
    """``boxlab.cli.main(argv)`` in this process, output captured."""
    out, err = io.StringIO(newline=""), io.StringIO(newline="")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


class CliPipeline:
    """A seeded script of ``python -m boxlab.cli`` subprocesses.

    Each pattern of twelve invocations holds four ``gen`` calls (family,
    noisy family, Werner state, fixed quantum states), three ``analyze``
    calls (JSON and CSV with the dimension search, and one with
    ``--skip-dims`` that alternates between JSON and CSV), two three-point
    sweeps over contextual parameters, one ``vertices`` dump and two
    malformed or invalid inputs that must exit 2, 3 or 4 (17% of
    invocations).

    The ``--skip-dims`` analyses (full-support LPs) are the slowest calls
    and the sweeps the next slowest.  A 30-second run makes about 70 calls,
    so about 6 of the first kind and 12 of the second: the tail (the 11th
    slowest call) falls in the middle of the sweeps, and the median among
    the many ``gen`` and ``analyze`` calls, whatever the seed.
    """

    name = "cli-pipeline"
    pattern = ("gen-noisy", "analyze-json", "vertices", "invalid",
               "analyze-skip", "gen-werner", "sweep-noisy", "gen-family",
               "invalid", "analyze-csv", "gen-quantum", "sweep-werner")
    cycle = len(pattern)

    def __init__(self, lib, workdir: str, env: dict) -> None:
        self.lib = lib
        self.workdir = workdir
        self.env = env
        self.texts: dict[str, str] = {}

    def _write(self, text: str) -> str:
        path = os.path.join(self.workdir, f"box{len(self.texts)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.texts[path] = text
        return path

    def _op(self, kind, argv, check, key, expected_code=0) -> Op:
        argv = tuple(argv)

        def run():
            return run_cli_subprocess(argv, self.workdir, self.env)

        def check_all(result):
            code, out, err = result
            expect("Traceback" not in err, f"{kind}: traceback on stderr")
            expect(code == expected_code,
                   f"{kind}: exit {code}, expected {expected_code}: "
                   f"{err.strip()[:200]}")
            if expected_code != 0:
                expect(out == "", f"{kind}: output on a failed invocation")
            else:
                check(out)

        # File arguments enter the digest by content, not by path.
        shown = [self.texts.get(a, a.replace(self.workdir, "<work>"))
                 for a in argv]
        return Op(kind, run, check_all, key, f"{kind} {' '.join(shown)}",
                  argv)

    def _gen_box(self, contexts, label):
        expected = {"contexts": model.to_strings(contexts)}
        if label is not None:
            expected["label"] = label

        def check(out):
            expect(json.loads(out) == expected, "gen output is wrong")
        return check

    def _analyze(self, rng, seen, fmt: str, skip: bool):
        if skip:
            box, _ = _fresh(rng, seen, peres_mixture)
        else:
            box, _ = _fresh(rng, seen,
                            lambda r: model.vertex_mixture(r, r.randint(4, 5)))
        label = f"bench-{rng.randrange(10**6)}"
        path = self._write(json.dumps({"contexts": model.to_strings(box),
                                       "label": label}))
        argv = ["analyze", path, "--format", fmt]
        if skip:
            argv.append("--skip-dims")
        lib = self.lib

        def check(out):
            validated = lib.scenario.validate_box(box, label=label)
            report = lib.witnesses.classify(validated, skip_dims=skip)
            if fmt == "json":
                expect(json.loads(out) == {
                    "box": lib.scenario.box_to_json_dict(validated),
                    "report": lib.witnesses.report_to_json_dict(report)},
                    "analyze JSON differs from the in-process report")
            else:
                expect(_csv_rows(out) == [
                    list(lib.witnesses.CSV_COLUMNS),
                    lib.witnesses.report_to_csv_row(report)],
                    "analyze CSV differs from the in-process report")
            expect(report.ncf + report.cost == 1, "ncf + cost != 1")
        return self._op(f"analyze-{fmt}{'-skip' if skip else ''}", argv,
                        check, box)

    def _sweep(self, rng, state: bool):
        low = model.rational_in(rng, _F(1, 3), _F(2, 3), 2, 12)
        high = model.rational_in(rng, _F(2, 3), _F(1), 2, 12)
        steps = 3
        grid = [low + i * (high - low) / (steps - 1) for i in range(steps)]
        if state:
            argv = ["sweep", "--state", "werner", "--observables", "peres",
                    "--format", "json-lines"]
        else:
            argv = ["sweep", "--family", "noisy-peres", "--format", "csv"]
        argv += ["--from", str(low), "--to", str(high), "--steps", str(steps)]
        columns = list(self.lib.cli.SWEEP_COLUMNS)

        def check(out):
            if state:
                rows = [json.loads(line) for line in out.splitlines()]
            else:
                table = _csv_rows(out)
                expect(table[0] == columns, "sweep CSV header is wrong")
                rows = [dict(zip(columns, r)) for r in table[1:]]
            expect(len(rows) == steps, "sweep row count is wrong")
            for w, row in zip(grid, rows):
                cost = model.noisy_cost(w)
                expect(row["W"] == str(w)
                       and row["cost"] == str(cost)
                       and row["contextual"] == ("true" if cost else "false")
                       and row["peres_strength"]
                       == str(model.noisy_peres_strength(w))
                       and row["ineq_lhs"] == str(model.noisy_inequality(w))
                       and row["min_nc_dim"] == "",
                       f"sweep row for W={w} is wrong")
        return self._op("sweep-werner" if state else "sweep-noisy", argv,
                        check, None)

    def _vertices(self, bell: bool):
        if bell:
            expected = [{"label": label,
                         "dists": {k: [str(p) for p in v]
                                   for k, v in dists.items()}}
                        for label, dists in model.local_vertices()]
        else:
            expected = [{"contexts": model.to_strings(box), "label": label}
                        for _, label, box in model.VERTICES]

        def check(out):
            expect([json.loads(line) for line in out.splitlines()]
                   == expected, "vertex dump is wrong")
        argv = ["vertices", "--bell-marginal"] if bell else ["vertices"]
        return self._op("vertices", argv, check, None)

    def _invalid(self, rng, case: int):
        """One malformed or invalid input with the exit code it must give."""
        w = model.rational_in(rng, _F(0), _F(1), 5, 40)
        box, _ = model.vertex_mixture(rng, rng.randint(2, 6))
        data = {"contexts": model.to_strings(box)}
        if case == 0:
            argv, code = ["analyze", self._write("{\"contexts\": [")], 2
        elif case == 1:
            data["contexts"]["C3"][rng.randrange(4)] = 0.25
            argv, code = ["analyze", self._write(json.dumps(data))], 2
        elif case == 2:
            row = data["contexts"]["C0"]
            i = rng.randrange(4)
            row[i] = str(-Fraction(row[i]) - Fraction(1, 8))
            argv, code = ["analyze", self._write(json.dumps(data))], 4
        elif case == 3:
            data["contexts"]["C4"] = [str(Fraction(1, 3))] * 4
            argv, code = ["analyze", self._write(json.dumps(data))], 4
        elif case == 4:
            data = {"contexts": model.to_strings(model.UNIFORM)}
            corner = [0, 0, 0, 0]
            corner[rng.randrange(4)] = 1
            data["contexts"]["C4"] = [str(v) for v in corner]
            argv, code = ["analyze", self._write(json.dumps(data))], 4
        elif case == 5:
            argv, code = ["gen", "--family", "noisy-peres", "--W",
                          f"0.{rng.randrange(1, 10)}"], 2
        elif case == 6:
            argv, code = ["gen", "--state", "werner", "--observables",
                          "peres", "--W", str(w), "--max-denominator",
                          "2"], 3
        elif case == 7:
            argv, code = ["sweep", "--family", "noisy-peres", "--from", "0",
                          "--to", str(w), "--steps", "1"], 2
        elif case == 8:
            argv, code = ["gen", "--family", "noisy-peres", "--W",
                          str(1 + w)], 2
        else:
            argv, code = ["analyze", os.path.join(self.workdir,
                                                  "missing.json")], 2
        return self._op(f"invalid-exit{code}", argv, None, None, code)

    def ops(self, rng, seen: set, warm: bool = False):
        if warm:
            yield self._vertices(False)
            yield self._analyze(rng, seen, "json", True)
            return
        counters = {"vertices": 0, "family": 0, "quantum": 0, "invalid": 0,
                    "skip": 0}
        quantum = sorted(model.QUANTUM)
        for slot in itertools.cycle(self.pattern):
            if slot == "gen-noisy":
                w = model.rational_in(rng, _F(0), _F(1), 2, 40)
                argv = ["gen", "--family", "noisy-peres", "--W", str(w)]
                yield self._op(slot, argv, self._gen_box(
                    model.noisy(w), f"noisy-peres W={w}"), None)
            elif slot == "gen-werner":
                w = model.rational_in(rng, _F(0), _F(1), 2, 40)
                argv = ["gen", "--state", "werner", "--observables", "peres",
                        "--W", str(w)]
                yield self._op(slot, argv,
                               self._gen_box(model.noisy(w), None), None)
            elif slot == "gen-quantum":
                name = quantum[counters["quantum"] % len(quantum)]
                counters["quantum"] += 1
                argv = ["gen", *model.QUANTUM_GEN_ARGS[name]]
                yield self._op(slot, argv, self._gen_box(
                    model.QUANTUM[name][0], None), None)
            elif slot == "gen-family":
                family, box = (("peres", model.PERES), ("noise", model.NOISE),
                               ("uniform", model.UNIFORM))[
                                   counters["family"] % 3]
                counters["family"] += 1
                argv = ["gen", "--family", family]
                yield self._op(slot, argv, self._gen_box(box, family),
                               None)
            elif slot == "analyze-skip":
                fmt = ("json", "csv")[counters["skip"] % 2]
                counters["skip"] += 1
                yield self._analyze(rng, seen, fmt, True)
            elif slot.startswith("analyze-"):
                yield self._analyze(rng, seen, slot.split("-")[1], False)
            elif slot.startswith("sweep-"):
                yield self._sweep(rng, slot == "sweep-werner")
            elif slot == "vertices":
                yield self._vertices(counters["vertices"] % 2 == 1)
                counters["vertices"] += 1
            else:
                # Exit codes 3, 4 and 2 all come up within three invalid
                # inputs, so even a short run checks each of them.
                case = (6, 2, 0, 3, 5, 4, 7, 1, 8, 9)[counters["invalid"] % 10]
                counters["invalid"] += 1
                yield self._invalid(rng, case)
