"""Exception hierarchy for boxlab.

Every error raised by the library derives from :class:`BoxlabError` so callers
(and the CLI) can map failures to exit codes without string matching.
"""

from __future__ import annotations


def _text(value) -> str:
    """``str(value)``, or its 12-digit decimal when a term of the rational
    passes the interpreter's digit limit for integer strings."""
    try:
        return str(value)
    except ValueError:
        from .scenario import rational_to_decimal  # scenario imports this module
        return rational_to_decimal(value)


class BoxlabError(Exception):
    """Base class for all boxlab errors."""


class BoxValidationError(BoxlabError):
    """Base class for box-validation failures (CLI exit code 4)."""


class NegativeEntry(BoxValidationError):
    """A probability entry is negative."""

    def __init__(self, context: str, index: int, value) -> None:
        super().__init__(f"negative entry {_text(value)} at {context}[{index}]")
        self.context = context
        self.index = index
        self.value = value


class NotNormalized(BoxValidationError):
    """A context's probabilities do not sum to exactly 1."""

    def __init__(self, context: str, total) -> None:
        super().__init__(
            f"context {context} sums to {_text(total)}, expected 1")
        self.context = context
        self.total = total


class NoDisturbanceViolation(BoxValidationError):
    """Single-observable marginals disagree between two hosting contexts."""

    def __init__(self, observable: str, context_pair: tuple[str, str],
                 left, right) -> None:
        fmt = lambda pair: "(" + ", ".join(_text(p) for p in pair) + ")"
        super().__init__(
            f"no-disturbance violation for {observable}: marginal "
            f"{fmt(left)} in {context_pair[0]} vs {fmt(right)} in "
            f"{context_pair[1]}"
        )
        self.observable = observable
        self.context_pair = context_pair


class BoxParseError(BoxlabError):
    """Malformed box JSON (bad shape, float entries, unparsable rationals)."""


class NoExactRationalization(BoxlabError):
    """Float box cannot be turned into an exactly valid rational box."""


class ContextNotCommuting(BoxlabError):
    """Observables assigned to one context fail to commute."""


class NegativeProbability(BoxlabError):
    """A computed quantum probability is negative beyond tolerance."""


class ParameterOutOfRange(BoxlabError):
    """A state-family or sweep parameter lies outside its valid range."""


class MalformedProgram(BoxlabError):
    """A linear program's dimensions or senses are inconsistent."""


class InvalidDecomposition(BoxlabError, ValueError):
    """A decomposition's weights are not a convex mixture of distinct
    vertices, or its mixture is not the target."""


class NotDecomposable(BoxlabError):
    """No mixture of the ideal contextual box and a noncontextual box exists."""


class NotNoncontextual(BoxlabError):
    """Operation requires a noncontextual box but the box is contextual."""


class NotLocal(BoxlabError):
    """Operation requires a Bell-local marginal but the marginal is nonlocal."""


class Inconclusive(BoxlabError):
    """Search budget exhausted before the question could be decided."""


class PairNotJoint(BoxlabError):
    """Covariance requested for observables never measured together."""
