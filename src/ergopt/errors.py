"""Exception hierarchy for the solver.

Every domain error raised by this package derives from ErgoptError so the
CLI can map them to exit codes in one place.
"""

from __future__ import annotations


class ErgoptError(Exception):
    """Base class for all solver errors."""


class InstanceFormatError(ErgoptError):
    """An instance file is syntactically or structurally invalid."""


class NotIrreducible(ErgoptError):
    """The transition matrix does not define a single strongly connected component."""


class EmptyRowOrColumn(ErgoptError):
    """Some symbol has no successor or no predecessor."""


class LambdaOutOfRange(ErgoptError):
    """The metric parameter must satisfy 0 < lambda < 1."""


class IncompatibleOrder(ErgoptError):
    """A potential or node function does not match the graph resolution it is used with."""


class NotASubAction(ErgoptError):
    """A claimed sub-action violates the defining inequality on some edge."""


class NotCalibrated(ErgoptError):
    """A sub-action is not a fixed point of the one-step minimum operator."""


class NotInConstraintSet(ErgoptError):
    """Boundary data violates the pairwise barrier inequalities."""


class NoPathExists(ErgoptError):
    """No admissible path realizes the requested endpoints and length."""


class TooLarge(ErgoptError):
    """The request exceeds the hard size limits of an exhaustive routine."""


class BudgetExceeded(ErgoptError):
    """A request exceeds the node budget or the word-length cap."""


class OracleMismatch(ErgoptError):
    """An independent recomputation disagreed with the solver output."""


class InternalError(ErgoptError, AssertionError):
    """An invariant the solver relies on failed: a bug, not bad input.

    It is an AssertionError too, since it stands where an assert would,
    but it is raised explicitly so that `python -O` keeps the check."""
