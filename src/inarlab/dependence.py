"""Exact dependence coefficients between finite discrete observables.

Maximal correlation (spectral form, batched by shape), the event-pair lambda
coefficient (subset enumeration up to complement) and conditional-independence
residuals for ordered triplets.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from .errors import (
    AlphabetTooLargeError,
    InvalidParameterError,
    NumericalError,
)
from .pmf import MASS_TOL, _owned, _require_finite_nonnegative, total_off_unit

DEFAULT_ALPHABET_CAP = 12
DEFAULT_EXPLOSION_LIMIT = 2_000_000
# float64 cells (1 MiB) of transient work: the joints one batch of SVDs holds,
# or one lambda event product.  It bounds memory; it refuses nothing.  It is
# also the largest operand that a dense kernel runs on one BLAS thread.
_WORK_BUDGET = 2**17
# OpenBLAS's thread count is one per process, and so is the count of open
# serial scopes that share it.
_BLAS_LOCK = threading.Lock()
_blas_scopes = {"open": 0, "saved": 0}  # guarded by _BLAS_LOCK

__all__ = [
    "JointPmf",
    "TripletPmf",
    "maximal_correlation",
    "maximal_correlations",
    "lambda_coefficient",
    "markov_triplet_residual",
]


@cache
def _openblas_threads():
    """(getter, setter) of the thread count of the OpenBLAS that numpy's
    linear algebra calls, found once through the symbols its extension
    module sees; None where there is none (MKL, Accelerate)."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _serial(*cells: int) -> bool:
    """Whether a kernel whose operands hold these cell counts runs on one
    BLAS thread: at this size threads cost more CPU and wall time than
    they save, while above it (a cap of 1413, say) the library's threads win."""
    return max(cells) <= _WORK_BUDGET


@contextmanager
def _serial_blas(*cells: int):
    """Run the block on one OpenBLAS thread when :func:`_serial` holds.

    The outermost of any concurrent scopes saves the library's count and
    sets 1, and the last to leave restores it, so the count after every
    call equals the count before.  Without OpenBLAS, or for larger
    operands, the block runs as it is; the tests check that the exact
    values come out bitwise the same either way."""
    api = _openblas_threads() if _serial(*cells) else None
    if api is None:
        yield
        return
    get, put = api
    with _BLAS_LOCK:
        if not _blas_scopes["open"]:
            _blas_scopes["saved"] = get()
            put(1)
        _blas_scopes["open"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_scopes["open"] -= 1
            if not _blas_scopes["open"]:
                put(_blas_scopes["saved"])


def _validate_mass(mass: np.ndarray, ndim: int) -> np.ndarray:
    mass = _owned(mass, np.float64)
    if mass.ndim != ndim:
        raise InvalidParameterError(f"mass must be {ndim}-dimensional")
    _require_finite_nonnegative(mass)
    total = total_off_unit(mass)
    if total is not None:
        raise InvalidParameterError(
            f"mass sums to {total!r}, not 1 within {MASS_TOL}"
        )
    return mass


def _without_null_atoms(mass: np.ndarray) -> np.ndarray:
    """Mass with its zero rows and zero columns removed; the array itself,
    uncopied, when it has none.  Both are read from the sums of the whole
    matrix: its cells are nonnegative, so a zero row adds nothing to a
    column's sum."""
    rows = mass.sum(axis=1).nonzero()[0]
    cols = mass.sum(axis=0).nonzero()[0]
    if rows.size < mass.shape[0]:
        mass = mass.take(rows, axis=0)
    return mass if cols.size == mass.shape[1] else mass.take(cols, axis=1)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint law of two finite discrete observables.

    ``mass[r, c]`` is the probability of (row atom r, column atom c).  Atoms
    carry no labels: every coefficient here is a function of the mass matrix
    alone and does not change when rows or columns are permuted.  Null
    atoms (zero rows and columns) are dropped on construction, so every
    atom of ``mass`` has positive marginal mass.  The joint owns the array
    it is handed (see ``pmf._owned``): a float64 C-ordered matrix is held
    uncopied, and the caller's reference to it turns read-only.
    """

    mass: np.ndarray

    def __post_init__(self):
        mass = _without_null_atoms(_validate_mass(self.mass, 2))
        object.__setattr__(self, "mass", _owned(mass, np.float64))

    @classmethod
    def _checked(cls, mass: np.ndarray) -> JointPmf:
        """A joint over a contiguous float64 matrix whose cells the caller
        has already checked, whose null atoms it has dropped and whose total
        it has made 1; not validated again, only owned."""
        joint = object.__new__(cls)
        object.__setattr__(joint, "mass", _owned(mass, np.float64))
        return joint

    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)


@dataclass(frozen=True, eq=False)
class TripletPmf:
    """Joint law of an ordered triple of finite discrete observables."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _validate_mass(self.mass, 3))


def maximal_correlation(joint: JointPmf) -> float:
    """Maximal correlation of the two observables, in [0, 1].

    For finite alphabets this is the second-largest singular value of
    ``mass[r, c] / sqrt(rowmass[r] * colmass[c])``, every marginal being
    positive since the joint holds no null atoms.  A degenerate side (one
    atom) yields 0: constant observables correlate with nothing.  The
    one-joint case of :func:`maximal_correlations`.
    """
    return maximal_correlations([joint])[0]


def maximal_correlations(joints: Iterable[JointPmf]) -> list[float]:
    """:func:`maximal_correlation` of each joint, in input order.

    Joints are read lazily and held until their shape's group is flushed:
    each group is copied into one C-ordered stack, whose row and column
    marginals are one stacked sum each, normalized in place and passed to
    one ``np.linalg.svd`` call.  So a joint's value depends on its cells
    alone: a Fortran-ordered or strided mass reads as its C-ordered copy.
    Every group is flushed once the held joints reach the work budget
    (2**17 cells, 1 MiB of float64), and at the end, so the memory a batch
    holds does not grow with the number of joints.
    """
    values: list[float] = []
    pending: dict[tuple[int, int], list] = {}
    cells = 0
    for joint in joints:
        values.append(0.0)
        if min(joint.mass.shape) < 2:
            continue
        pending.setdefault(joint.mass.shape, []).append((len(values) - 1, joint))
        cells += joint.mass.size
        if cells >= _WORK_BUDGET:
            _flush(pending, values)
            cells = 0
    _flush(pending, values)
    return values


def _flush(pending: dict[tuple[int, int], list], values: list[float]) -> None:
    """Store the second singular value of every pending joint, then clear."""
    for shape, group in pending.items():
        stack = np.array([joint.mass for _, joint in group])  # always C order
        rows, cols = stack.sum(axis=2), stack.sum(axis=1)  # each joint's marginals
        # Scale by each square root separately: their product can underflow.
        stack /= np.sqrt(rows)[:, :, None]
        stack /= np.sqrt(cols)[:, None, :]
        with _serial_blas(math.prod(shape)):
            sv = np.linalg.svd(stack, compute_uv=False).reshape(len(group), -1)
        off = np.flatnonzero(np.abs(sv[:, 0] - 1.0) > 1e-10)
        if off.size:
            raise NumericalError(
                f"leading singular value {sv[off[0], 0]!r} deviates from 1; "
                "joint is inconsistent"
            )
        for (pos, _), second in zip(group, sv[:, 1].tolist()):
            values[pos] = min(1.0, max(0.0, second))
    pending.clear()


def _subset_masks(n: int) -> np.ndarray:
    """Indicator matrix of all nonempty subsets of {0..n-1}, one row each."""
    idx = np.arange(1, 2**n)
    return ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def _half_events(marginal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indicator rows and probabilities of the events A with P(A) <= P(A^c).

    Row i of ``_subset_masks`` is the event i + 1; its complement is row
    ``rows - 2 - i``, and the full event has the empty one.  The comparison
    allows for the rounding of the sums, so both members of a tied pair stay.
    """
    masks = _subset_masks(marginal.size)
    p = masks @ marginal
    keep = p <= np.append(p[-2::-1], 0.0) + marginal.size * 2.0**-52
    return masks[keep], p[keep]


def lambda_coefficient(joint: JointPmf) -> float:
    """Exact sup of |P(A&B) - P(A)P(B)| / sqrt(P(A)P(B)) over event pairs.

    Events are unions of atoms, enumerated exhaustively up to complement,
    so both alphabets must stay at or below ``DEFAULT_ALPHABET_CAP``; the
    joint holds no null atoms to count.  An event and its complement share
    |P(A&B) - P(A)P(B)|, and the smaller of the two has the larger ratio, so
    each side keeps only the events with P(A) <= P(A^c).  A side with one
    atom has no such event and yields 0.
    """
    mass, rm, cm = joint.mass, joint.row_marginal(), joint.col_marginal()
    n_r, n_c = mass.shape
    if n_r > DEFAULT_ALPHABET_CAP or n_c > DEFAULT_ALPHABET_CAP:
        raise AlphabetTooLargeError(
            f"alphabet sizes {mass.shape} exceed the exact-enumeration cap "
            f"{DEFAULT_ALPHABET_CAP}"
        )
    if n_r < 2 or n_c < 2:
        return 0.0
    # stat[A, B] = (P(A&B) - P(A)P(B)) / sqrt(P(A)P(B)) = left[A] . right[B],
    # with left = [P(A&{c}) / sqrt(P(A)), -sqrt(P(A))] and
    # right = [1{c in B} / sqrt(P(B)), sqrt(P(B))]: one product per chunk of
    # columns B, each product within the work budget.
    # Every term is at most 1 in magnitude, so the error is O(n_c * eps).
    row_masks, pa = _half_events(rm)
    col_masks, pb = _half_events(cm)
    sqrt_pa = np.sqrt(pa)
    sqrt_pb = np.sqrt(pb)
    left = np.hstack([(row_masks @ mass) / sqrt_pa[:, None], -sqrt_pa[:, None]])
    right = np.hstack([col_masks / sqrt_pb[:, None], sqrt_pb[:, None]])
    best = 0.0
    chunk = max(1, _WORK_BUDGET // left.shape[0])
    with _serial_blas(left.size, right.size):
        for start in range(0, right.shape[0], chunk):
            stat = left @ right[start : start + chunk].T
            best = max(best, float(stat.max()), -float(stat.min()))
            del stat  # freed before the next chunk's product is allocated
    return best


def markov_triplet_residual(triplet: TripletPmf) -> float:
    """Worst atomwise violation of P(A&C|B) = P(A|B) * P(C|B).

    Zero iff the ordered atom sigma-fields form a Markov triplet; conditioning
    atoms with zero probability impose no constraint.
    """
    mass = triplet.mass
    worst = 0.0
    for b in range(mass.shape[1]):
        slab = mass[:, b, :]
        pb = slab.sum()
        if pb <= 0.0:
            continue
        pac = slab / pb
        pa = pac.sum(axis=1)
        pc = pac.sum(axis=0)
        worst = max(worst, float(np.abs(pac - np.outer(pa, pc)).max()))
    return worst

