"""Command-line interface: ``gen``, ``analyze``, ``sweep``, ``vertices``.

Exit codes: 0 success; 2 bad flags, unreadable or unparsable input (a
closed stdin included), or output that cannot be written (a closed, full
or broken-pipe stdout included, for ``--help`` too); 3 a float box could
not be rationalized exactly; 4 box validation failed (the message names the
violated constraint).  A closed or failing stderr loses the message, a
usage error's included, not the code.
All output is deterministic: canonical JSON key order
and canonical rational strings, so identical invocations are byte-identical.

Rationals on the command line are written ``num/den`` (or a bare integer);
decimal input is rejected to protect exactness.  The env var
``BOXLAB_BUDGET`` overrides the subset-search node budget, as does
``--budget`` where offered.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .boxes import noise_box, noisy_peres_box, peres_box, uniform_box
from .decompose import (
    EXACT,
    _budget_value,
    contextual_fraction,
    min_nc_dimension,
    peres_strength,
)
from .errors import (
    BoxParseError,
    BoxValidationError,
    NoExactRationalization,
    NotDecomposable,
    ParameterOutOfRange,
)
from .quantum import (
    DEFAULT_MAX_DENOMINATOR,
    DEFAULT_TOLERANCE,
    OBSERVABLE_SETS,
    STATE_FAMILIES,
    make_observables,
    make_state,
    quantum_box,
)
from .scenario import (
    BELL_SETTINGS,
    _checked_label,
    as_rational,
    box_from_json_dict,
    box_to_json_dict,
    format_rational,
    inequality_lhs,
)
from .vertices import enumerate_local_vertices, enumerate_nc_vertices
from .witnesses import (
    CSV_COLUMNS,
    _csv_bool,
    _rational_cells,
    classify,
    report_to_csv_row,
    report_to_json_dict,
    sdi_contextuality_check,
)

#: Most grid points one ``sweep`` takes; its grid and boxes are built up
#: front, so a larger ``--steps`` is rejected before any of that work.
MAX_SWEEP_STEPS = 10_000

#: Box families generated directly from exact matrices (no quantum step).
FAMILY_CHOICES = ("peres", "noise", "noisy-peres", "uniform")
#: The quantum state families, spelled with ``-`` on the command line.
STATE_CHOICES = tuple(name.replace("_", "-") for name in STATE_FAMILIES)
OBSERVABLE_CHOICES = OBSERVABLE_SETS

SWEEP_COLUMNS = (
    "W", "W_dec", "ineq_lhs", "ineq_lhs_dec", "contextual", "cost",
    "cost_dec", "Q", "Q_dec", "cov_DE", "cov_DE_dec", "peres_strength",
    "peres_strength_dec", "sdi_contextual", "min_nc_dim",
)


def _emit(stream, text: str) -> None:
    """Write and flush ``text`` on a standard stream.  When that fails, the
    stream's descriptor is pointed at the null device before the error
    propagates: the interpreter flushes the stream again at exit, and a
    failure there would make the exit code 120."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        raise


def _report(text: str) -> None:
    """Write ``text`` on stderr; a closed or failing stderr loses it, so
    that the caller's exit code still stands."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            _emit(sys.stderr, text)


def _write_text(text: str, path: str | None) -> None:
    try:
        if path is None or path == "-":
            _check_output(path)
            _emit(sys.stdout, text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        raise BoxParseError(f"cannot write output file: {exc}") from exc


def _check_output(path: str | None) -> None:
    """Raise the error :func:`_write_text` would raise for ``path`` when it
    cannot be opened for writing, or stdout when it is closed, so a command
    fails before its work does.  An existing path is opened without
    truncating it; a new one is created and removed at once, so every error
    is the kernel's own.  A dangling symbolic link, which the create refuses
    as existing, is left to :func:`_write_text`."""
    if path is None or path == "-":
        if sys.stdout is None:
            raise BoxParseError("cannot write output file: stdout is closed")
        return
    try:
        if os.path.exists(path):
            os.close(os.open(path, os.O_WRONLY))
        else:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
    except FileExistsError:
        pass
    except OSError as exc:
        raise BoxParseError(f"cannot write output file: {exc}") from exc


def _canonical_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _json_line(data) -> str:
    return json.dumps(data, sort_keys=True)


def _source_box(args, w):
    """The box ``--family`` or ``--state`` names, at parameter ``w``: the
    ``--W`` text, a sweep's grid point, or None."""
    if (args.family is None) == (args.state is None):
        raise BoxParseError("choose exactly one of --family or --state")
    if args.family is not None:
        for flag, value in (("--observables", args.observables),
                            ("--max-denominator", args.max_denominator),
                            ("--tolerance", args.tolerance)):
            if value is not None:
                raise BoxParseError(f"{flag} requires --state")
        if args.family == "noisy-peres":
            if w is None:
                raise BoxParseError("--family noisy-peres requires --W")
            return noisy_peres_box(as_rational(w))
        if w is not None:
            raise BoxParseError(
                f"--W is not a parameter of family {args.family!r}")
        return {"peres": peres_box, "noise": noise_box,
                "uniform": uniform_box}[args.family]()
    if args.observables is None:
        raise BoxParseError("--state requires --observables")
    if args.state == "werner":
        if w is None:
            raise BoxParseError("--state werner requires --W")
        w = as_rational(w)
    elif w is not None:
        raise BoxParseError(f"--W is not a parameter of state {args.state!r}")
    rho = make_state(args.state.replace("-", "_"), w)
    max_denominator, tolerance = args.max_denominator, args.tolerance
    return quantum_box(
        rho, make_observables(args.observables),
        max_denominator=(DEFAULT_MAX_DENOMINATOR if max_denominator is None
                         else max_denominator),
        tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance)


def _csv_text(columns, rows) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_gen(args) -> int:
    box = _source_box(args, args.W)
    if args.label is not None:
        box = box.with_label(_checked_label(args.label))
    _write_text(_canonical_json(box_to_json_dict(box)), args.output)
    return 0


def _load_box(path: str):
    try:
        if path == "-":
            if sys.stdin is None:
                raise BoxParseError("cannot read box file: stdin is closed")
            # Bytes, so the decode is strict UTF-8 whatever stdin's encoding.
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BoxParseError(f"cannot read box file: {exc}") from exc
    try:
        data = json.loads(text)
    # JSONDecodeError, an over-long int literal, or nesting too deep to parse.
    except (ValueError, RecursionError) as exc:
        raise BoxParseError(f"invalid JSON: {exc}") from exc
    return box_from_json_dict(data)


def cmd_analyze(args) -> int:
    box = _load_box(args.box)
    _check_output(args.output)
    report = classify(box, budget=args.budget, skip_dims=args.skip_dims)
    if args.format == "json":
        payload = {
            "box": box_to_json_dict(box),
            "report": report_to_json_dict(report),
        }
        _write_text(_canonical_json(payload), args.output)
    else:
        _write_text(_csv_text(CSV_COLUMNS, [report_to_csv_row(report)]),
                    args.output)
    return 0


def _sweep_grid(from_text: str, to_text: str, steps: int) -> list[Fraction]:
    start = as_rational(from_text)
    stop = as_rational(to_text)
    if steps < 2:
        raise BoxParseError("--steps must be at least 2")
    if steps > MAX_SWEEP_STEPS:
        raise ParameterOutOfRange(
            f"--steps must be at most {MAX_SWEEP_STEPS}, got {steps}")
    if not start < stop:
        raise BoxParseError("--from must be strictly below --to")
    if start < 0 or stop > 1:
        raise ParameterOutOfRange("sweep range must lie within [0, 1]")
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


def _sweep_row(w: Fraction, box, budget: int | None) -> dict:
    lhs = inequality_lhs(box)
    fraction = contextual_fraction(box)
    contextual = fraction.cost > 0
    sdi = sdi_contextuality_check(box)
    try:
        ps = peres_strength(box).value
    except NotDecomposable:
        ps = None
    dim_cell = ""
    if not contextual:
        result = min_nc_dimension(box, budget)
        if result.status == EXACT:
            dim_cell = str(result.dimension)
    return dict(zip(SWEEP_COLUMNS, [
        *_rational_cells(w),
        *_rational_cells(lhs),
        _csv_bool(contextual),
        *_rational_cells(fraction.cost),
        *_rational_cells(sdi.q_witness),
        *_rational_cells(sdi.cov_de),
        *_rational_cells(ps),
        _csv_bool(sdi.passed),
        dim_cell,
    ]))


def cmd_sweep(args) -> int:
    budget = _budget_value(args.budget)
    if args.family is not None and args.family != "noisy-peres":
        raise BoxParseError("only the noisy-peres family has a parameter")
    if args.state is not None and args.state != "werner":
        raise BoxParseError("only the werner state has a parameter")
    grid = _sweep_grid(args.sweep_from, args.sweep_to, args.steps)
    boxes = [_source_box(args, w) for w in grid]
    _check_output(args.output)
    rows = [_sweep_row(w, box, budget) for w, box in zip(grid, boxes)]
    if args.format == "csv":
        text = _csv_text(SWEEP_COLUMNS,
                         ([row[c] for c in SWEEP_COLUMNS] for row in rows))
    else:
        text = "".join(_json_line(row) + "\n" for row in rows)
    _write_text(text, args.output)
    return 0


def cmd_vertices(args) -> int:
    lines = []
    if args.bell_marginal:
        for vid, vertex in enumerate_local_vertices():
            lines.append(_json_line({
                "label": vid.label,
                "dists": {
                    f"A{x}B{y}": [format_rational(p)
                                  for p in vertex.dist(x, y)]
                    for x, y in BELL_SETTINGS
                },
            }))
    else:
        for vid, vertex in enumerate_nc_vertices():
            lines.append(_json_line(box_to_json_dict(vertex)))
    _write_text("".join(line + "\n" for line in lines), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose text goes out through :func:`_emit`: help
    to stdout, where a failed write raises :class:`BoxParseError` as any
    command's output does, and a usage error's text to stderr, where a
    failed write loses the text but not the exit code 2."""

    def print_help(self, file=None) -> None:
        _write_text(self.format_help(), None)

    def error(self, message: str):
        _report(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxlab",
        description=("Exact-rational toolbox for the five-context "
                     "parity scenario: generate boxes, classify them, sweep "
                     "noise parameters, and dump polytope vertices."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a box as canonical JSON")
    gen.add_argument("--family", choices=FAMILY_CHOICES)
    gen.add_argument("--state", choices=STATE_CHOICES)
    gen.add_argument("--observables", choices=OBSERVABLE_CHOICES)
    gen.add_argument("--W", metavar="RATIONAL",
                     help="parameter for noisy-peres / werner, e.g. 1/3")
    gen.add_argument("--max-denominator", type=int)
    gen.add_argument("--tolerance", type=float)
    gen.add_argument("--label", help="optional label stored in the JSON")
    gen.add_argument("-o", "--output", help="output file (default stdout)")
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="classify a box file")
    analyze.add_argument("box", help="box JSON file, or - for stdin")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.add_argument("--skip-dims", action="store_true",
                         help="skip the exponential dimension searches")
    analyze.add_argument("--budget", type=int,
                         help="subset-search node budget")
    analyze.add_argument("-o", "--output")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser("sweep", help="sweep a parameterized family")
    sweep.add_argument("--family", choices=FAMILY_CHOICES)
    sweep.add_argument("--state", choices=STATE_CHOICES)
    sweep.add_argument("--observables", choices=OBSERVABLE_CHOICES)
    sweep.add_argument("--from", dest="sweep_from", required=True,
                       metavar="RATIONAL")
    sweep.add_argument("--to", dest="sweep_to", required=True,
                       metavar="RATIONAL")
    sweep.add_argument("--steps", type=int, required=True,
                       help=f"grid points, 2 to {MAX_SWEEP_STEPS}")
    sweep.add_argument("--format", choices=("csv", "json-lines"),
                       default="csv")
    sweep.add_argument("--max-denominator", type=int)
    sweep.add_argument("--tolerance", type=float)
    sweep.add_argument("--budget", type=int)
    sweep.add_argument("-o", "--output")
    sweep.set_defaults(func=cmd_sweep)

    vertices = sub.add_parser("vertices", help="dump deterministic vertices")
    vertices.add_argument("--bell-marginal", action="store_true",
                          help="dump the 16 local vertices instead of the 64")
    vertices.add_argument("-o", "--output")
    vertices.set_defaults(func=cmd_vertices)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # --help or a usage error, after its text (see _Parser).
        return 0 if exc.code in (0, None) else 2
    except (BoxParseError, ParameterOutOfRange) as exc:
        error, code = exc, 2
    except NoExactRationalization as exc:
        error, code = exc, 3
    except BoxValidationError as exc:
        error, code = exc, 4
    _report(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
