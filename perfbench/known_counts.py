"""Exact search and LP counts of four fixed boxes, in a fresh interpreter.

Run with the library's sources on ``PYTHONPATH``; prints one JSON object.
A fresh interpreter starts with empty caches, so the counts repeat exactly
from run to run.  For each box: the minimal noncontextual dimension, its
status, the search nodes, and the LP solves one default ``classify`` makes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import boxlab
import boxlab.decompose as decompose

BOXES = {
    "noise": boxlab.noise_box,
    "noisy_1_4": lambda: boxlab.noisy_peres_box(Fraction(1, 4)),
    "noisy_1_3": lambda: boxlab.noisy_peres_box(Fraction(1, 3)),
    "uniform": boxlab.uniform_box,
}


def main() -> None:
    solves = [0]
    original = decompose.solve

    def counted(lp):
        solves[0] += 1
        return original(lp)

    decompose.solve = counted
    out = {}
    for name, make in BOXES.items():
        solves[0] = 0
        result = boxlab.classify(make()).min_nc_dim
        out[name] = {"dimension": result.dimension, "status": result.status,
                     "nodes": result.nodes_used, "lp_calls": solves[0]}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
