"""Recorded minimal-dimension searches, compared exactly by the test suite.

``golden_dimensions.json`` holds, for every box below and its Bell marginal
at every budget in :data:`BUDGETS`, the :class:`DimensionResult` the search
returns (dimension, status, support labels, weights, ``nodes_used`` and
``filtered_count``) or the exception it raises.  The boxes: the noisy family
at W = i/60 for i = 0..20, the uniform box, every literal box table of
``fixtures`` (the quantum fixture boxes among them) and the six fixture
vertex boxes; the Bell-marginal fixtures join the marginals.

Regenerate the file from a checkout whose search is trusted, with that
checkout's ``src`` on ``PYTHONPATH``::

    python tests/golden_dimensions.py tests/golden_dimensions.json
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import fixtures as fx
from boxlab.boxes import noise_box, noisy_peres_box, uniform_box
from boxlab.decompose import min_lhv_dimension, min_nc_dimension
from boxlab.errors import BoxlabError
from boxlab.scenario import bell_marginal, format_rational

GOLDEN_PATH = Path(__file__).with_name("golden_dimensions.json")

#: ``None`` is the default budget.
BUDGETS = (0, 2_000, 200_000, None)


def golden_boxes() -> list:
    """``(name, box)`` for every box whose searches are recorded."""
    boxes = [("noise", noise_box()), ("uniform", uniform_box())]
    boxes += [(f"W={i}/60", noisy_peres_box(Fraction(i, 60)))
              for i in range(21)]
    boxes += [(name, fx.build_box(table))
              for name, table in sorted(vars(fx).items())
              if name.endswith("_TABLE")]
    boxes += [(f"DET_TABLES[{label}]", fx.build_box(table))
              for label, table in fx.DET_TABLES.items()]
    return boxes


def golden_targets() -> list:
    """``(name, kind, target)``: each box, then its Bell marginal."""
    targets = []
    for name, box in golden_boxes():
        targets.append((name, "NC", box))
        targets.append((name, "LHV", bell_marginal(box)))
    targets += [(f"LOCAL_DET_TABLES[{label}]", "LHV", fx.build_marginal(table))
                for label, table in fx.LOCAL_DET_TABLES.items()]
    return targets


def entry(search, target, budget) -> dict:
    """The recorded outcome of ``search(target, budget)``."""
    try:
        result = search(target, budget)
    except BoxlabError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    dec = result.decomposition
    return {
        "dimension": result.dimension,
        "status": result.status,
        "support": None if dec is None else [vid.label for vid, _ in dec.terms],
        "weights": None if dec is None else [format_rational(w)
                                             for _, w in dec.terms],
        "nodes_used": result.nodes_used,
        "filtered_count": result.filtered_count,
    }


def golden_entries() -> list[dict]:
    """Every recorded case, in file order."""
    searches = {"NC": min_nc_dimension, "LHV": min_lhv_dimension}
    return [{"case": name, "kind": kind, "budget": budget,
             **entry(searches[kind], target, budget)}
            for name, kind, target in golden_targets()
            for budget in BUDGETS]


if __name__ == "__main__":
    text = json.dumps(golden_entries(), indent=1) + "\n"
    Path(sys.argv[1]).write_text(text)
