"""Property test of the command line on generated arguments and box files.

Whatever the flags (valid, malformed, negative, NaN or oversized values) and
whatever the box file (valid mixtures of vertices, or ones broken in some
way), ``boxlab.cli.main`` returns one of the documented exit codes 0, 2, 3, 4
and lets no exception escape.  Budgets stay at most 200 and sweeps at most
three steps, so each example is cheap.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from boxlab.cli import FAMILY_CHOICES, OBSERVABLE_CHOICES, STATE_CHOICES, main
from boxlab.scenario import CONTEXT_IDS, box_to_json_dict, mix_boxes
from boxlab.vertices import enumerate_nc_vertices

DOCUMENTED_CODES = {0, 2, 3, 4}

RATIONALS = st.sampled_from([
    "0", "1", "1/4", "1/3", "1/2", "2/3", "3/4", "-1/4", "3/2", "0.5", "nan",
    "inf", "abc", "", "1/0", "1/" + "7" * 40, "1" * 5001 + "/3",
])
BUDGETS = st.sampled_from(["0", "10", "200", "-5", "abc", "nan", "2.5",
                           "1" * 5000])
ENV_BUDGETS = st.sampled_from(["0", "50", "200", "abc", "-1"])
TOLERANCES = st.sampled_from(["1e-9", "0.01", "0", "-1", "nan", "inf", "-inf",
                              "abc", "1e-300"])
DENOMINATORS = st.sampled_from(["1", "4", "12", "4096", "0", "-3", "abc",
                                "1000000"])


def optional(name, values):
    """``[]`` or ``[name, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def choice(name, choices):
    return optional(name, st.sampled_from([*choices, "bogus"]))


def flag(name):
    return st.sampled_from([[], [name]])


@st.composite
def source_flags(draw):
    return (draw(choice("--family", FAMILY_CHOICES))
            + draw(choice("--state", STATE_CHOICES))
            + draw(choice("--observables", OBSERVABLE_CHOICES))
            + draw(optional("--max-denominator", DENOMINATORS))
            + draw(optional("--tolerance", TOLERANCES)))


@st.composite
def gen_argv(draw):
    return (["gen"] + draw(source_flags())
            + draw(optional("--W", RATIONALS))
            + draw(optional("--label", st.text(max_size=8))))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), RATIONALS,
    st.lists(st.integers(0, 1), max_size=3), st.dictionaries(
        st.text(max_size=2), st.integers(0, 1), max_size=2),
)


@st.composite
def box_texts(draw):
    """JSON text of a vertex mixture, left valid or broken in one way."""
    vertices = enumerate_nc_vertices()
    picks = draw(st.lists(st.integers(0, len(vertices) - 1),
                          min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(picks),
                            max_size=len(picks)))
    total = sum(weights)
    box = mix_boxes([(f"{w}/{total}", vertices[i][1])
                     for w, i in zip(weights, picks)])
    data = box_to_json_dict(box)
    contexts = data["contexts"]
    context = draw(st.sampled_from(CONTEXT_IDS))
    index = draw(st.integers(0, len(contexts[context]) - 1))
    mutation = draw(st.sampled_from([
        "none", "entry", "context", "drop-entry", "drop-context",
        "unknown-context", "label", "contexts", "top-level", "truncate",
        "swap",
    ]))
    if mutation == "entry":
        contexts[context][index] = draw(JSON_VALUES)
    elif mutation == "context":
        contexts[context] = draw(JSON_VALUES)
    elif mutation == "drop-entry":
        del contexts[context][index]
    elif mutation == "drop-context":
        del contexts[context]
    elif mutation == "unknown-context":
        contexts["C9"] = contexts[context]
    elif mutation == "label":
        data["label"] = draw(JSON_VALUES)
    elif mutation == "contexts":
        data["contexts"] = draw(JSON_VALUES)
    elif mutation == "top-level":
        data = draw(JSON_VALUES)
    elif mutation == "swap":
        row = contexts[context]
        other = draw(st.integers(0, len(row) - 1))
        row[index], row[other] = row[other], row[index]
    text = json.dumps(data)
    if mutation == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def analyze_flags(draw):
    return (draw(choice("--format", ("json", "csv")))
            + draw(flag("--skip-dims"))
            + draw(optional("--budget", BUDGETS)))


@st.composite
def sweep_argv(draw):
    return (["sweep"] + draw(source_flags())
            + draw(optional("--from", RATIONALS))
            + draw(optional("--to", RATIONALS))
            + draw(optional("--steps", st.sampled_from(
                ["-1", "0", "1", "2", "3", "x"])))
            + draw(choice("--format", ("csv", "json-lines")))
            + draw(optional("--budget", BUDGETS)))


@st.composite
def vertices_argv(draw):
    return (["vertices"] + draw(flag("--bell-marginal"))
            + draw(st.sampled_from([[], ["--bogus"], ["extra"]])))


def check_exit(argv, env_budget):
    """Run ``main(argv)`` with stdout and stderr captured and
    ``BOXLAB_BUDGET`` set, so no search runs unbounded, and check the exit."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"BOXLAB_BUDGET": env_budget}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in DOCUMENTED_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "", argv
        assert err.strip(), argv


SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=100, **SETTINGS)
@given(argv=gen_argv(), env_budget=ENV_BUDGETS)
def test_gen_exit_codes(argv, env_budget):
    check_exit(argv, env_budget)


@settings(max_examples=100, **SETTINGS)
@given(text=box_texts(), flags=analyze_flags(), env_budget=ENV_BUDGETS)
def test_analyze_exit_codes(tmp_path, text, flags, env_budget):
    path = tmp_path / "box.json"
    path.write_text(text, encoding="utf-8")
    check_exit(["analyze", str(path), *flags], env_budget)


@settings(max_examples=60, **SETTINGS)
@given(argv=sweep_argv(), env_budget=ENV_BUDGETS)
def test_sweep_exit_codes(argv, env_budget):
    check_exit(argv, env_budget)


@settings(max_examples=10, **SETTINGS)
@given(argv=vertices_argv(), env_budget=ENV_BUDGETS)
def test_vertices_exit_codes(argv, env_budget):
    check_exit(argv, env_budget)
