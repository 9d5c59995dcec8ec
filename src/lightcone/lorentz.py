"""Closed-form linear algebra of Lorentz vector spaces.

Everything here is exact 4x4 matrix arithmetic: causal classification of
vectors, Gram matrices, and validation of orthonormal right-handed
frames. No ODEs, no charts.

Conventions: metric signature (+, -, -, -); index 0 is the timelike slot.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CausalDomainError, InvalidInputError

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

#: Default tolerance on the quadratic form when classifying vectors.
#: The underlying zero sets are exact; numerics cannot be, so the
#: classification threshold is caller-tunable.
CLASSIFY_TOL = 1e-10


class CausalCharacter(Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"
    ZERO = "zero"


@dataclass(frozen=True)
class Event:
    """A point of a spacetime chart: chart identifier plus 4 coordinates.

    Coordinates carry units of length (coordinate 0 is c*t).
    """

    chart_id: str
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (4,) or not np.all(np.isfinite(coords)):
            raise InvalidInputError(f"event coordinates must be 4 finite reals, got {self.coords}")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class Frame4:
    """Four ordered tangent vectors at one event, stored as matrix columns."""

    base: Event
    matrix: np.ndarray  # column i is the i-th frame vector

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4) or not np.all(np.isfinite(m)):
            raise InvalidInputError("frame matrix must be a finite 4x4 array")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise InvalidInputError("frame columns are linearly dependent")
        object.__setattr__(self, "matrix", m)

    def column(self, i):
        return self.matrix[:, i]


def _check_vec(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (4,) or not np.all(np.isfinite(v)):
        raise InvalidInputError(f"expected 4 finite components, got {v!r}")
    return v


def _check_metric(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4) or not np.all(np.isfinite(g)):
        raise InvalidInputError("metric must be a finite 4x4 matrix")
    return g


def inner(g, v, w):
    """Lorentz product g(v, w)."""
    return float(np.asarray(v) @ np.asarray(g) @ np.asarray(w))


def causal_character(g, v, tol=CLASSIFY_TOL) -> CausalCharacter:
    """Classify v as timelike, lightlike, spacelike or zero under g.

    Timelike means g(v,v) > tol, spacelike g(v,v) < -tol.  Within +-tol of
    the null cone the vector counts as lightlike provided it is not itself
    negligibly small (max-norm above tol).
    """
    g = _check_metric(g)
    v = _check_vec(v)
    if tol <= 0:
        raise InvalidInputError("classification tolerance must be positive")
    q = inner(g, v, v)
    if q > tol:
        return CausalCharacter.TIMELIKE
    if q < -tol:
        return CausalCharacter.SPACELIKE
    if np.max(np.abs(v)) > tol:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.ZERO


def is_future_directed(g, future_ref, v, tol=CLASSIFY_TOL) -> bool:
    """True iff the causal vector v points to the same cone half as future_ref.

    future_ref must be a timelike vector designated future-directed.  Works
    for timelike and lightlike v alike: both cone halves are separated by
    the sign of g(future_ref, v).
    """
    g = _check_metric(g)
    future_ref = _check_vec(future_ref)
    v = _check_vec(v)
    if causal_character(g, future_ref, tol) is not CausalCharacter.TIMELIKE:
        raise CausalDomainError("future reference vector must be timelike")
    char = causal_character(g, v, tol)
    if char in (CausalCharacter.SPACELIKE, CausalCharacter.ZERO):
        raise CausalDomainError(f"future-directedness undefined for {char.value} vectors")
    return inner(g, future_ref, v) > 0.0


def gram_matrix(g, frame_matrix):
    """Pairwise Lorentz products of frame columns: G_ij = g(X_i, X_j)."""
    m = np.asarray(frame_matrix, dtype=float)
    return m.T @ np.asarray(g, dtype=float) @ m


def validate_frame_of_reference(g, future_ref, right_handed_ref, frame, tol=1e-8) -> bool:
    """Decide whether `frame` is an admissible frame of reference.

    Three conditions: the columns are g-orthonormal with Gram matrix eta,
    the zeroth column is future-directed against `future_ref`, and the
    change of basis from the designated right-handed reference frame has
    positive determinant (so spacetime orientation is preserved).
    """
    g = _check_metric(g)
    x = frame.matrix if isinstance(frame, Frame4) else np.asarray(frame, dtype=float)
    ref = (
        right_handed_ref.matrix
        if isinstance(right_handed_ref, Frame4)
        else np.asarray(right_handed_ref, dtype=float)
    )
    if np.max(np.abs(gram_matrix(g, x) - ETA)) > tol:
        return False
    try:
        if not is_future_directed(g, future_ref, x[:, 0]):
            return False
    except CausalDomainError:
        return False
    # orientation: components of X in the reference basis
    change = np.linalg.solve(ref, x)
    return np.linalg.det(change) > 0.0
