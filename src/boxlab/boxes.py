"""Named box families built directly from exact rationals (no quantum step).

* ``peres_box`` — the maximally contextual box of the scenario: perfect
  correlation in C0 and C3, perfect anticorrelation in C4, and C1/C2 supported
  uniformly on even-parity outcomes.  It reaches the inequality value 5.
* ``noise_box`` — the no-disturbance analogue of white noise: uniform on C0,
  C3, C4, and uniform on the even-parity outcomes of C1 and C2 (the C1/C2
  supports are pinned by no-disturbance with the uniform C4, so this is not
  the fully uniform box).
* ``noisy_peres_box(w)`` — the mixture ``w * peres + (1-w) * noise``.
* ``uniform_box`` — uniform in every context (8-outcome contexts at 1/8).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import ParameterOutOfRange
from .scenario import Box, as_rational, mix_boxes, validate_box

_EVEN_PARITY_8 = ("1/4", "0", "0", "1/4", "0", "1/4", "1/4", "0")


@cache
def peres_box() -> Box:
    """The maximally contextual box (inequality value 5), built once: a
    :class:`~boxlab.scenario.Box` is immutable."""
    return validate_box(
        [
            ("1/2", "0", "0", "1/2"),
            _EVEN_PARITY_8,
            _EVEN_PARITY_8,
            ("1/2", "0", "0", "1/2"),
            ("0", "1/2", "1/2", "0"),
        ],
        label="peres",
    )


@cache
def noise_box() -> Box:
    """The noncontextual noise box (inequality value 2), built once."""
    quarter = ("1/4", "1/4", "1/4", "1/4")
    return validate_box(
        [quarter, _EVEN_PARITY_8, _EVEN_PARITY_8, quarter, quarter],
        label="noise",
    )


def noisy_peres_box(w) -> Box:
    """Mixture ``w * peres_box + (1-w) * noise_box`` for rational w in [0, 1]."""
    weight = as_rational(w)
    if not 0 <= weight <= 1:
        raise ParameterOutOfRange(f"mixing weight must be in [0, 1], got {weight}")
    box = mix_boxes(
        [(weight, peres_box()), (1 - weight, noise_box())],
        label=f"noisy-peres W={weight}",
    )
    return box


def uniform_box() -> Box:
    """The fully uniform box (every context uniform)."""
    return validate_box(
        [
            [Fraction(1, 4)] * 4,
            [Fraction(1, 8)] * 8,
            [Fraction(1, 8)] * 8,
            [Fraction(1, 4)] * 4,
            [Fraction(1, 4)] * 4,
        ],
        label="uniform",
    )
