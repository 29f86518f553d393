"""End-to-end command-line behavior: generation, analysis, sweeps, dumps.

Most tests drive ``boxlab.cli.main`` in-process and capture stdout/stderr;
two smoke tests run the ``boxlab`` console script that ``pyproject.toml``
declares in a separate process, through the same ``sys.exit(main())`` body
that an installed console-script wrapper runs, so they need no install, and
one runs the package under ``python -S``, where numpy cannot be imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import boxlab
import fixtures as fx
from boxlab import cli
from boxlab.boxes import noisy_peres_box
from boxlab.cli import SWEEP_COLUMNS, main
from boxlab.errors import BoxParseError
from boxlab.quantum import make_observables, make_state, quantum_box
from boxlab.scenario import box_from_json_dict, box_to_json_dict
from boxlab.vertices import enumerate_local_vertices, enumerate_nc_vertices
from boxlab.witnesses import CSV_COLUMNS, classify, report_to_csv_row


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    """Exit 2 with nothing on stdout and a one-line ``error:`` message."""
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def gen_box_file(tmp_path, capsys, *argv):
    path = tmp_path / "box.json"
    code, out, err = run_cli(capsys, "gen", *argv, "-o", str(path))
    assert code == 0, err
    assert out == ""
    return path


SWEEP_GOLDEN = "\r\n".join([
    "W,W_dec,ineq_lhs,ineq_lhs_dec,contextual,cost,cost_dec,Q,Q_dec,"
    "cov_DE,cov_DE_dec,peres_strength,peres_strength_dec,sdi_contextual,"
    "min_nc_dim",
    "0,0,2,2,false,0,0,0,0,0,0,1/2,0.5,false,",
    "1/4,0.25,11/4,2.75,false,0,0,1/16,0.0625,-1/4,-0.25,5/8,0.625,true,",
    "1/2,0.5,7/2,3.5,true,1/4,0.25,1/4,0.25,-1/2,-0.5,3/4,0.75,true,",
    "3/4,0.75,17/4,4.25,true,5/8,0.625,9/16,0.5625,-3/4,-0.75,7/8,0.875,true,",
    "1,1,5,5,true,1,1,1,1,-1,-1,1,1,true,",
]) + "\r\n"


class TestGen:
    def test_family_box_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--family", "peres")
        assert code == 0
        assert err == ""
        assert out.endswith("\n")
        data = json.loads(out)
        assert data["label"] == "peres"
        box = box_from_json_dict(data)
        assert box.contexts == fx.build_box(fx.PERES_TABLE).contexts

    def test_output_flag_writes_file(self, tmp_path, capsys):
        path = gen_box_file(tmp_path, capsys, "--family", "noise")
        data = json.loads(path.read_text())
        assert box_from_json_dict(data).contexts == fx.build_box(fx.NOISE_TABLE).contexts

    def test_family_and_state_paths_agree_bytewise(self, capsys):
        code, direct, _ = run_cli(
            capsys, "gen", "--family", "noisy-peres", "--W", "1/3",
            "--label", "same",
        )
        assert code == 0
        code, viaq, _ = run_cli(
            capsys, "gen", "--state", "werner", "--observables", "peres",
            "--W", "1/3", "--label", "same",
        )
        assert code == 0
        assert direct == viaq

    def test_quantum_generation_is_deterministic(self, capsys):
        args = ("gen", "--state", "rank3-sigma", "--observables", "peres")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second
        box = box_from_json_dict(json.loads(first))
        assert box.contexts == fx.build_box(fx.RANK3_SIGMA_PERES_TABLE).contexts

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen",),
            ("gen", "--family", "peres", "--state", "werner"),
            ("gen", "--family", "peres", "--observables", "peres"),
            ("gen", "--family", "peres", "--W", "1/2"),
            ("gen", "--family", "noisy-peres"),
            ("gen", "--family", "noisy-peres", "--W", "0.5"),
            ("gen", "--family", "noisy-peres", "--W", "3/2"),
            ("gen", "--state", "max-entangled"),
            ("gen", "--state", "werner", "--observables", "peres"),
            ("gen", "--state", "cc", "--observables", "peres", "--W", "1/3"),
            ("gen", "--family", "bogus"),
        ],
        ids=[
            "no-source", "two-sources", "observables-without-state",
            "family-with-parameter", "missing-parameter", "decimal-parameter",
            "parameter-out-of-range", "state-without-observables",
            "werner-without-parameter", "state-with-stray-parameter",
            "unknown-family",
        ],
    )
    def test_bad_invocations_exit_2(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2

    def test_oversized_parameter_exits_2(self, capsys):
        # Terms beyond the interpreter's 4300-digit int-string limit.
        w = "1" * 5001 + "/" + "3" * 5001
        assert_one_error_line(*run_cli(
            capsys, "gen", "--family", "noisy-peres", "--W", w))

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_unusable_tolerance_exits_2(self, capsys, tolerance):
        # NaN and infinity would pass every entry: |q - value| >= tolerance
        # is never true for them.
        assert_one_error_line(*run_cli(
            capsys, "gen", "--state", "werner", "--observables", "peres",
            "--W", "1/10", "--max-denominator", "4", "--tolerance", tolerance))

    @pytest.mark.parametrize("flag, value", [
        ("--max-denominator", "-3"), ("--tolerance", "nan"),
        ("--max-denominator", "1000"), ("--tolerance", "1e-9"),
    ])
    def test_quantum_only_flag_with_family_exits_2(self, capsys, flag, value):
        # The flags only steer rationalization of a --state box; with a
        # --family box they were silently ignored.
        code, out, err = run_cli(
            capsys, "gen", "--family", "peres", flag, value)
        assert_one_error_line(code, out, err)
        assert err == f"error: {flag} requires --state\n"

    def test_label_that_is_not_unicode_text_exits_2(self, tmp_path, capsys):
        # A command-line byte that is not UTF-8 arrives as a lone surrogate.
        path = tmp_path / "box.json"
        code, out, err = run_cli(capsys, "gen", "--family", "noise",
                                 "--label", "noise\udcff", "-o", str(path))
        assert_one_error_line(code, out, err)
        assert "valid Unicode text" in err
        assert not path.exists()

    def test_rationalization_failure_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "--state", "werner", "--observables", "peres",
            "--W", "1/3", "--max-denominator", "5",
        )
        assert code == 3
        assert out == ""
        assert "within" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "gen" in out and "analyze" in out


class TestAnalyze:
    def test_json_report_round_trips_box(self, tmp_path, capsys):
        path = gen_box_file(
            tmp_path, capsys, "--family", "noisy-peres", "--W", "1/3"
        )
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert set(payload) == {"box", "report"}
        echoed = box_from_json_dict(payload["box"])
        original = box_from_json_dict(json.loads(path.read_text()))
        assert echoed.contexts == original.contexts
        report = payload["report"]
        assert report["inequality_lhs"] == "3"
        assert report["contextual"] is False
        assert report["peres_strength"] == "2/3"
        assert report["noncontextual_model"]["min_dimension"]["dimension"] == 8
        assert report["bell_marginal"]["min_dimension"]["dimension"] == 6
        assert report["witnesses"]["q_witness"] == "1/9"

    def test_analysis_is_deterministic(self, tmp_path, capsys):
        path = gen_box_file(tmp_path, capsys, "--family", "noise")
        code, first, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        code, second, _ = run_cli(capsys, "analyze", str(path))
        assert first == second

    def test_csv_format(self, tmp_path, capsys):
        path = gen_box_file(
            tmp_path, capsys, "--family", "noisy-peres", "--W", "1/3"
        )
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "csv")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == (
            "noisy-peres W=1/3,true,3,3,false,1,1,0,0,1/9,0.111111111111,"
            "-1/3,-0.333333333333,1,1,true,2/3,0.666666666667,8,exact,"
            "true,true,6,exact,true"
        )
        assert lines[2:] == [""]

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        text = json.dumps(box_to_json_dict(fx.build_box(fx.CC_PERES_TABLE)))
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(text.encode())))
        code, out, _ = run_cli(capsys, "analyze", "-", "--skip-dims")
        assert code == 0
        assert json.loads(out)["report"]["inequality_lhs"] == "3"

    def test_skip_dims_nulls_search_fields(self, tmp_path, capsys):
        path = gen_box_file(tmp_path, capsys, "--family", "peres")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--skip-dims")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["noncontextual_model"]["min_dimension"] is None
        assert report["bell_marginal"]["min_dimension"] is None
        assert report["bell_marginal"]["superlocal"] is True

    def test_budget_flag_limits_search(self, tmp_path, capsys):
        path = gen_box_file(
            tmp_path, capsys, "--family", "noisy-peres", "--W", "1/3"
        )
        code, out, _ = run_cli(capsys, "analyze", str(path), "--budget", "10")
        assert code == 0
        report = json.loads(out)["report"]
        model = report["noncontextual_model"]
        assert model["min_dimension"]["status"] == "lower-bound-only"
        assert model["supernoncontextual"] is None
        row_code, row_out, _ = run_cli(
            capsys, "analyze", str(path), "--format", "csv", "--budget", "10"
        )
        cells = dict(zip(CSV_COLUMNS, row_out.split("\r\n")[1].split(",")))
        assert cells["min_nc_dim_status"] == "lower-bound-only"
        assert cells["supernoncontextual"] == ""

    def test_budget_env_var(self, tmp_path, capsys, monkeypatch):
        path = gen_box_file(
            tmp_path, capsys, "--family", "noisy-peres", "--W", "1/3"
        )
        monkeypatch.setenv("BOXLAB_BUDGET", "10")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["noncontextual_model"]["min_dimension"]["status"] == (
            "lower-bound-only"
        )

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_budget_env_var_exits_2(self, tmp_path, capsys, monkeypatch,
                                        value):
        path = gen_box_file(tmp_path, capsys, "--family", "noise")
        monkeypatch.setenv("BOXLAB_BUDGET", value)
        assert_one_error_line(*run_cli(capsys, "analyze", str(path)))

    def test_negative_budget_flag_exits_2(self, tmp_path, capsys):
        path = gen_box_file(tmp_path, capsys, "--family", "noise")
        assert_one_error_line(
            *run_cli(capsys, "analyze", str(path), "--budget", "-5"))

    def test_bad_budget_rejected_without_search(self, tmp_path, capsys,
                                                monkeypatch):
        # The budget is checked before any work, even when no search runs.
        path = gen_box_file(tmp_path, capsys, "--family", "noise")
        assert_one_error_line(*run_cli(
            capsys, "analyze", str(path), "--budget", "-5", "--skip-dims"))
        monkeypatch.setenv("BOXLAB_BUDGET", "abc")
        assert_one_error_line(*run_cli(
            capsys, "analyze", str(path), "--skip-dims"))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_past_int_string_limit_exits_2(self, tmp_path, capsys,
                                                  fmt):
        # A valid box whose report values (such as Q) have more digits than
        # the interpreter converts to a string.
        path = gen_box_file(tmp_path, capsys, "--family", "noisy-peres",
                            "--W", "1/" + "7" * 3000)
        code, out, err = run_cli(capsys, "analyze", str(path), "--skip-dims",
                                 "--format", fmt)
        assert_one_error_line(code, out, err)
        assert "4300-digit" in err

    def test_invalid_box_past_int_string_limit_exits_4(self, tmp_path,
                                                       capsys):
        # Each entry parses, but their sum has a ~4,700-digit denominator.
        data = box_to_json_dict(fx.build_box(fx.NOISE_TABLE))
        data["contexts"]["C4"] = [f"1/{2 ** 3900}", f"1/{3 ** 2450}",
                                  f"1/{5 ** 1680}", f"1/{7 ** 1390}"]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 4
        assert out == ""
        # The sum is shown to 12 significant digits.
        assert err == ("error: context C4 sums to 1.12962031036E-1169, "
                       "expected 1\n")

    def test_oversized_rational_string_exits_2(self, tmp_path, capsys):
        data = box_to_json_dict(fx.build_box(fx.NOISY_THIRD_TABLE))
        data["contexts"]["C0"][0] = "1" * 5000 + "/3"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert_one_error_line(*run_cli(capsys, "analyze", str(path)))

    def test_oversized_json_integer_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"contexts": {"C0": [' + "1" * 5000 + "]}}")
        assert_one_error_line(*run_cli(capsys, "analyze", str(path)))

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("this is not json")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read box file" in err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"contexts": {"C0": ["\xbd"]}}')
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert_one_error_line(code, out, err)
        assert "cannot read box file" in err

    def test_non_utf8_stdin_exits_2(self, tmp_path):
        # stdin is read as bytes and decoded as strict UTF-8, as a file is,
        # whatever encoding the interpreter gives stdin.
        package_root = str(Path(boxlab.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "boxlab.cli", "analyze", "-"],
            input=b"\xff", capture_output=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": package_root,
                 "PYTHONIOENCODING": "utf-8:strict"})
        out, err = result.stdout.decode(), result.stderr.decode()
        assert_one_error_line(result.returncode, out, err)
        assert "cannot read box file" in err

    def test_label_that_is_not_unicode_text_exits_2(self, tmp_path, capsys):
        # A lone surrogate, as a JSON escape admits, cannot be written out.
        data = box_to_json_dict(fx.build_box(fx.NOISE_TABLE))
        data["label"] = "\udcff"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(data))
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "analyze", str(path), "--format",
                                 "csv", "-o", str(out_path))
        assert_one_error_line(code, out, err)
        assert "valid Unicode text" in err
        assert not out_path.exists()

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert_one_error_line(code, out, err)
        assert "invalid JSON" in err

    def test_disturbing_box_exits_4(self, tmp_path, capsys):
        data = box_to_json_dict(fx.build_box(fx.NOISY_THIRD_TABLE))
        # Skew the D marginal of the A0,B1,D context against the D,E context
        # while preserving the A0,B1 marginal.
        data["contexts"]["C1"] = ["1/2", "0", "0", "1/2", "0", "0", "0", "0"]
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 4
        assert "D" in err


#: Each sweep column's counterpart among the analyze CSV columns; the
#: sweep's min_nc_dim is that dimension when exact, else blank.
SHARED_COLUMNS = {
    "ineq_lhs": "inequality_lhs", "ineq_lhs_dec": "inequality_lhs_dec",
    "contextual": "contextual", "cost": "cost", "cost_dec": "cost_dec",
    "Q": "q_witness", "Q_dec": "q_witness_dec", "cov_DE": "cov_DE",
    "cov_DE_dec": "cov_DE_dec", "peres_strength": "peres_strength",
    "peres_strength_dec": "peres_strength_dec",
    "sdi_contextual": "sdi_contextual",
}


class TestSweep:
    @pytest.mark.parametrize("source", ["noisy-peres", "werner-product"])
    def test_rows_agree_with_classify(self, source):
        # The noisy family at W = i/12; the Werner state with product
        # observables, whose boxes take the Peres strength's off-support
        # branch and searches of size 4 and 6, at W = 0, 1/2, 1.
        if source == "noisy-peres":
            grid = [Fraction(i, 12) for i in range(13)]
            boxes = [noisy_peres_box(w) for w in grid]
        else:
            grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
            boxes = [quantum_box(make_state("werner", w),
                                 make_observables("product")) for w in grid]
        for w, box in zip(grid, boxes):
            row = cli._sweep_row(w, box, None)
            report = dict(zip(CSV_COLUMNS, report_to_csv_row(classify(box))))
            assert {c: row[c] for c in SHARED_COLUMNS} == \
                {c: report[r] for c, r in SHARED_COLUMNS.items()}, w
            exact = report["min_nc_dim_status"] == "exact"
            assert row["min_nc_dim"] == (report["min_nc_dim"] if exact
                                         else ""), w

    def test_noisy_family_golden_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "noisy-peres", "--from", "0",
            "--to", "1", "--steps", "5", "--budget", "200",
        )
        assert code == 0, err
        assert out == SWEEP_GOLDEN

    def test_family_and_state_sweeps_agree(self, capsys):
        args = ("--from", "0", "--to", "1", "--steps", "3", "--budget", "50")
        code, family_out, _ = run_cli(
            capsys, "sweep", "--family", "noisy-peres", *args
        )
        assert code == 0
        code, state_out, _ = run_cli(
            capsys, "sweep", "--state", "werner", "--observables", "peres",
            *args,
        )
        assert code == 0
        assert family_out == state_out

    def test_json_lines_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "noisy-peres", "--from", "0",
            "--to", "1", "--steps", "3", "--format", "json-lines",
            "--budget", "50",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [row["W"] for row in rows] == ["0", "1/2", "1"]
        assert all(set(row) == set(SWEEP_COLUMNS) for row in rows)
        assert rows[2]["cost"] == "1"
        assert rows[2]["peres_strength"] == "1"
        assert rows[0]["contextual"] == "false"

    def test_observables_with_family_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "noisy-peres", "--observables",
            "peres", "--from", "0", "--to", "1", "--steps", "2",
        )
        assert_one_error_line(code, out, err)
        assert err == "error: --observables requires --state\n"

    @pytest.mark.parametrize("flag, value", [
        ("--max-denominator", "-3"), ("--tolerance", "nan"),
        ("--max-denominator", "1000"), ("--tolerance", "1e-9"),
    ])
    def test_quantum_only_flag_with_family_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "noisy-peres", flag, value,
            "--from", "0", "--to", "1", "--steps", "2",
        )
        assert_one_error_line(code, out, err)
        assert err == f"error: {flag} requires --state\n"

    def test_bad_budget_rejected_before_any_point(self, capsys):
        # Every point of this sweep is contextual, so no search would run.
        assert_one_error_line(*run_cli(
            capsys, "sweep", "--family", "noisy-peres", "--from", "1/2",
            "--to", "1", "--steps", "2", "--budget", "-5"))

    @pytest.mark.parametrize("steps", ["10001", "1000000000000"])
    def test_steps_above_the_maximum_rejected_before_the_grid(
            self, capsys, monkeypatch, steps):
        # The grid is linear in --steps: 10^12 points would never finish.
        monkeypatch.setattr(cli, "_source_box", None)
        assert_one_error_line(*run_cli(
            capsys, "sweep", "--family", "noisy-peres", "--from", "0",
            "--to", "1", "--steps", steps))

    def test_steps_at_the_maximum_accepted(self):
        grid = cli._sweep_grid("0", "1", cli.MAX_SWEEP_STEPS)
        assert len(grid) == cli.MAX_SWEEP_STEPS and grid[-1] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--family", "noisy-peres", "--from", "0", "--to", "1",
             "--steps", "1"),
            ("sweep", "--family", "noisy-peres", "--from", "1/2", "--to",
             "1/4", "--steps", "3"),
            ("sweep", "--family", "noisy-peres", "--from", "-1/4", "--to",
             "1/2", "--steps", "3"),
            ("sweep", "--family", "noisy-peres", "--from", "1/2", "--to",
             "3/2", "--steps", "3"),
            ("sweep", "--family", "peres", "--from", "0", "--to", "1",
             "--steps", "3"),
            ("sweep", "--state", "rank2", "--observables", "peres", "--from",
             "0", "--to", "1", "--steps", "3"),
            ("sweep", "--state", "werner", "--from", "0", "--to", "1",
             "--steps", "3"),
            ("sweep", "--family", "noisy-peres", "--state", "werner",
             "--from", "0", "--to", "1", "--steps", "3"),
            ("sweep", "--from", "0", "--to", "1", "--steps", "3"),
            ("sweep", "--family", "noisy-peres", "--from", "0", "--to", "1"),
        ],
        ids=[
            "too-few-steps", "reversed-range", "below-zero", "above-one",
            "non-parameterized-family", "non-parameterized-state",
            "state-without-observables", "two-sources", "no-source",
            "missing-steps",
        ],
    )
    def test_bad_invocations_exit_2(self, capsys, argv):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2


class TestVertices:
    def test_full_vertex_dump(self, capsys):
        code, out, _ = run_cli(capsys, "vertices")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 64
        expected_labels = [vid.label for vid, _ in enumerate_nc_vertices()]
        parsed = [json.loads(line) for line in lines]
        assert [p["label"] for p in parsed] == expected_labels
        # Every line revalidates and matches the enumerated vertex.
        for p, (_, vertex) in zip(parsed, enumerate_nc_vertices()):
            assert box_from_json_dict(p).contexts == vertex.contexts

    def test_dump_matches_transcribed_tables(self, capsys):
        code, out, _ = run_cli(capsys, "vertices")
        by_label = {json.loads(line)["label"]: json.loads(line)
                    for line in out.splitlines()}
        for label, table in fx.DET_TABLES.items():
            assert (box_from_json_dict(by_label[label]).contexts
                    == fx.build_box(table).contexts)

    def test_bell_marginal_dump(self, capsys):
        code, out, _ = run_cli(capsys, "vertices", "--bell-marginal")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        expected_labels = [vid.label for vid, _ in enumerate_local_vertices()]
        parsed = [json.loads(line) for line in lines]
        assert [p["label"] for p in parsed] == expected_labels
        row = next(p for p in parsed if p["label"] == "1010")
        table = fx.LOCAL_DET_TABLES["1010"]
        assert row["dists"]["A0B0"] == table[0]
        assert row["dists"]["A0B1"] == table[1]
        assert row["dists"]["A1B0"] == table[2]
        assert row["dists"]["A1B1"] == table[3]

    def test_dump_is_deterministic(self, capsys):
        code, first, _ = run_cli(capsys, "vertices")
        code, second, _ = run_cli(capsys, "vertices")
        assert first == second

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "vertices.jsonl"
        code, out, _ = run_cli(capsys, "vertices", "-o", str(path))
        assert code == 0
        assert out == ""
        assert len(path.read_text().splitlines()) == 64


@pytest.mark.parametrize("command", [
    ["vertices"],
    ["analyze", "--skip-dims", "BOX"],
    ["gen", "--family", "noise"],
    ["sweep", "--family", "noisy-peres", "--from", "0", "--to", "1",
     "--steps", "2"],
], ids=lambda command: command[0])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    box = gen_box_file(tmp_path, capsys, "--family", "noise")
    argv = [str(box) if arg == "BOX" else arg for arg in command]
    target = tmp_path / "missing-dir" / "out"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert_one_error_line(code, out, err)
    assert "cannot write output file" in err
    assert not target.parent.exists()


class TestOutputCheckedFirst:
    """``analyze`` and ``sweep`` reject an unwritable ``-o`` before any LP
    or search runs, with the line the write itself would print, and a
    failing run neither creates nor truncates the output file."""

    COMMANDS = {
        "analyze": ["analyze", "BOX"],
        "sweep": ["sweep", "--family", "noisy-peres", "--from", "0", "--to",
                  "1", "--steps", "3"],
    }

    @staticmethod
    def forbid_work(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the analysis ran before the output check")

        monkeypatch.setattr(cli, "classify", fail)
        monkeypatch.setattr(cli, "_sweep_row", fail)

    def argv(self, tmp_path, capsys, command, target):
        box = gen_box_file(tmp_path, capsys, "--family", "noise")
        return [str(box) if arg == "BOX" else arg
                for arg in self.COMMANDS[command]] + ["-o", str(target)]

    # A name longer than a file name may be, and the empty path itself (not
    # joined to tmp_path).
    @pytest.mark.parametrize("target", [
        "missing-dir/out", "file/out", "dir", "dir/",
        pytest.param("n" * 300, id="long-name"), pytest.param("", id="empty")])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_fails_before_the_work(self, tmp_path, capsys, monkeypatch,
                                   command, target):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        if target == "dir/":
            target = f"{tmp_path / 'dir'}/"
        elif target:
            target = tmp_path / target
        argv = self.argv(tmp_path, capsys, command, target)
        with pytest.raises(BoxParseError) as late:
            cli._write_text("", str(target))
        self.forbid_work(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {late.value}\n"
        assert (tmp_path / "file").read_text() == ""
        assert not (tmp_path / "missing-dir").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_writable_output_is_left_alone_until_written(
            self, tmp_path, capsys, monkeypatch, command):
        kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
        kept.write_text("keep")
        self.forbid_work(monkeypatch)
        for target in (kept, new):
            argv = self.argv(tmp_path, capsys, command, target)
            with pytest.raises(AssertionError, match="output check"):
                main(argv)
        assert kept.read_text() == "keep"
        assert not new.exists()

    # The check's exclusive create refuses a dangling symbolic link as an
    # existing file; the write then creates the file the link names.
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_dangling_symlink_is_written_through(self, tmp_path, capsys,
                                                 command):
        plain, link = tmp_path / "plain.txt", tmp_path / "link"
        link.symlink_to(tmp_path / "linked.txt")
        for target in (plain, link):
            code, out, err = run_cli(
                capsys, *self.argv(tmp_path, capsys, command, target))
            assert (code, out, err) == (0, "", "")
        assert link.is_symlink()
        assert (tmp_path / "linked.txt").read_text() == plain.read_text()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_closed_stdout_fails_before_the_work(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # The interpreter sets sys.stdout to None when descriptor 1 is
        # closed at start.
        argv = self.argv(tmp_path, capsys, command, "-")
        self.forbid_work(monkeypatch)
        monkeypatch.setattr(sys, "stdout", None)
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert err == "error: cannot write output file: stdout is closed\n"

    def test_invalid_box_leaves_the_output_alone(self, tmp_path, capsys):
        data = box_to_json_dict(fx.build_box(fx.NOISY_THIRD_TABLE))
        data["contexts"]["C1"] = ["1/2", "0", "0", "1/2", "0", "0", "0", "0"]
        box = tmp_path / "skewed.json"
        box.write_text(json.dumps(data))
        kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
        kept.write_text("keep")
        for target in (kept, new):
            code, _, _ = run_cli(capsys, "analyze", str(box), "-o",
                                 str(target))
            assert code == 4
        assert kept.read_text() == "keep"
        assert not new.exists()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_console_script(tmp_path, *argv):
    """Run the ``boxlab`` console script declared in ``pyproject.toml`` in a
    subprocess, through the body of the wrapper an install writes for it,
    importing the same ``boxlab`` package as the in-process tests."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "boxlab" in scripts, f"{PYPROJECT} declares no [project.scripts] boxlab"
    target = scripts["boxlab"]
    module, sep, function = str(target).partition(":")
    assert sep and module and function.isidentifier(), (
        f"[project.scripts] boxlab = {target!r} is not of the form 'module:function'"
    )
    code = f"import sys\nfrom {module} import {function}\nsys.exit({function}())"
    package_root = str(Path(boxlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )


def run_without_site(tmp_path, *argv):
    """Run ``python -S`` (no site-packages, so no numpy) on the package's
    sources alone."""
    package_root = str(Path(boxlab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", *argv], capture_output=True, text=True,
        timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": package_root},
    )


class TestWithoutNumpy:
    """numpy serves the quantum layer only: importing the package and the
    commands that make no quantum box must run without it."""

    def test_exact_commands_run_without_numpy(self, tmp_path):
        blocked = run_without_site(tmp_path, "-c", "import numpy")
        assert blocked.returncode != 0, "numpy importable without site"
        assert "No module named 'numpy'" in blocked.stderr
        result = run_without_site(tmp_path, "-c", "import boxlab")
        assert result.returncode == 0, result.stderr
        result = run_without_site(tmp_path, "-m", "boxlab.cli", "vertices")
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.splitlines()) == 64
        result = run_without_site(
            tmp_path, "-m", "boxlab.cli", "gen", "--family", "noisy-peres",
            "--W", "1/4", "-o", "box.json")
        assert result.returncode == 0, result.stderr
        result = run_without_site(
            tmp_path, "-m", "boxlab.cli", "analyze", "box.json", "--skip-dims")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["box"] == json.loads(
            (tmp_path / "box.json").read_text())


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = run_console_script(tmp_path, "gen", "--family", "peres")
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["label"] == "peres"

    def test_entry_point_error_code(self, tmp_path):
        result = run_console_script(
            tmp_path, "gen", "--family", "noisy-peres", "--W", "0.5"
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


def run_with_streams(tmp_path, *argv, closed=(), stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, unbuffered=False):
    """``python -m boxlab.cli`` in a subprocess with stdout and stderr sent
    to ``stdout`` and ``stderr`` and the standard descriptors in ``closed``
    closed.  Its streams are buffered, as by default, so that output still
    buffered at exit is flushed then, unless ``unbuffered`` sets
    ``PYTHONUNBUFFERED``."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(boxlab.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "boxlab.cli", *argv], stdout=stdout,
        stderr=stderr, text=True, timeout=120, cwd=tmp_path,
        env=env, preexec_fn=lambda: [os.close(fd) for fd in closed])


def assert_write_error(result):
    """Exit 2 (not 1 from a traceback, nor 120 from a failed flush at
    interpreter exit) with one ``cannot write output file`` line."""
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: cannot write output file: ")
    assert result.stderr.count("\n") == 1, result.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes and pipes descriptors")
class TestStandardStreams:
    """A closed or failing standard stream exits 2, never with a
    traceback."""

    def test_closed_stdin(self, tmp_path):
        result = run_with_streams(tmp_path, "analyze", "-", closed=(0,))
        assert_one_error_line(result.returncode, result.stdout, result.stderr)
        assert result.stderr == "error: cannot read box file: stdin is closed\n"

    @pytest.mark.parametrize("argv", [
        ("analyze", "box.json", "--skip-dims"),
        ("gen", "--family", "noise"),
        ("vertices",),
    ])
    def test_closed_stdout(self, tmp_path, capsys, argv):
        gen_box_file(tmp_path, capsys, "--family", "noise")
        result = run_with_streams(tmp_path, *argv, closed=(1,))
        assert_write_error(result)
        assert result.stderr.endswith(": stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "noise"),
        ("vertices",),
        ("vertices", "--bell-marginal"),
    ])
    def test_full_device(self, tmp_path, argv):
        with open("/dev/full", "w") as full:
            result = run_with_streams(tmp_path, *argv, stdout=full)
        assert_write_error(result)

    def test_broken_pipe(self, tmp_path):
        # The reading end is closed before the command starts, so every
        # write fails, however short the output.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_with_streams(tmp_path, "gen", "--family", "noise",
                                      stdout=write_end)
        finally:
            os.close(write_end)
        assert_write_error(result)

    @pytest.mark.parametrize("argv, code", [
        (("analyze", "missing.json"), 2),
        (("gen", "--family", "noisy-peres", "--W", "2"), 2),
        (("gen", "--state", "werner", "--observables", "peres", "--W",
          "1/3", "--max-denominator", "2"), 3),
    ])
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, argv, code):
        result = run_with_streams(tmp_path, *argv, closed=(2,))
        assert (result.returncode, result.stdout, result.stderr) == (
            code, "", "")
        # A descriptor open for reading only: every write to it fails.
        with open(os.devnull, "rb") as null:
            result = run_with_streams(tmp_path, *argv, stderr=null)
        assert (result.returncode, result.stdout) == (code, "")


@pytest.mark.skipif(os.name != "posix", reason="closes and pipes descriptors")
class TestHelpAndUsageStreams:
    """``--help`` and a usage error on a closed or failing stream keep the
    documented exit codes, with the child's streams buffered and
    unbuffered: help that cannot be written exits 2 with one error line,
    and a usage error exits 2 whatever becomes of its text."""

    HELP = [("--help",), ("analyze", "--help")]
    USAGE = ("analyze",)  # the box argument is missing

    def test_help_and_usage_text(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, out, err) == (0, cli._build_parser().format_help(), "")
        code, out, err = run_cli(capsys, *self.USAGE)
        assert (code, out) == (2, "")
        assert err.startswith("usage: boxlab analyze ")
        assert err.endswith("\nboxlab analyze: error: the following "
                            "arguments are required: box\n")

    @pytest.mark.parametrize("argv", HELP)
    def test_help_to_closed_stdout(self, tmp_path, argv):
        for unbuffered in (False, True):
            result = run_with_streams(tmp_path, *argv, closed=(1,),
                                      unbuffered=unbuffered)
            assert_write_error(result)
            assert result.stderr.endswith(": stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    @pytest.mark.parametrize("argv", HELP)
    def test_help_to_full_device(self, tmp_path, argv):
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                result = run_with_streams(tmp_path, *argv, stdout=full,
                                          unbuffered=unbuffered)
            assert_write_error(result)
            assert "Traceback" not in result.stderr

    def test_help_to_broken_pipe(self, tmp_path):
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = run_with_streams(tmp_path, "--help",
                                          stdout=write_end,
                                          unbuffered=unbuffered)
            finally:
                os.close(write_end)
            assert_write_error(result)
            assert "Traceback" not in result.stderr

    def test_usage_error_to_closed_stderr(self, tmp_path):
        for unbuffered in (False, True):
            result = run_with_streams(tmp_path, *self.USAGE, closed=(2,),
                                      unbuffered=unbuffered)
            assert (result.returncode, result.stdout, result.stderr) == (
                2, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    def test_usage_error_to_full_device(self, tmp_path):
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                result = run_with_streams(tmp_path, *self.USAGE, stderr=full,
                                          unbuffered=unbuffered)
            assert (result.returncode, result.stdout) == (2, "")
            # A descriptor open for reading only: every write to it fails.
            with open(os.devnull, "rb") as null:
                result = run_with_streams(tmp_path, *self.USAGE, stderr=null,
                                          unbuffered=unbuffered)
            assert (result.returncode, result.stdout) == (2, "")
