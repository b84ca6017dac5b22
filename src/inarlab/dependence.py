"""Exact dependence coefficients between finite discrete observables.

Maximal correlation (spectral form), the event-pair lambda coefficient
(full subset enumeration), conditional-independence residuals for ordered
triplets, and the product-measure combination used to check that maximal
correlation of independent blocks equals the blockwise maximum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetTooLargeError,
    ExplosionLimitError,
    InvalidParameterError,
)
from .pmf import MASS_TOL

DEFAULT_ALPHABET_CAP = 12
DEFAULT_EXPLOSION_LIMIT = 2_000_000

__all__ = [
    "JointPmf",
    "TripletPmf",
    "maximal_correlation",
    "lambda_coefficient",
    "markov_triplet_residual",
    "tensor_combine",
    "joint_to_json",
    "joint_from_json",
]


def _validate_mass(mass: np.ndarray, ndim: int) -> np.ndarray:
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    if mass.ndim != ndim:
        raise InvalidParameterError(f"mass must be {ndim}-dimensional")
    if not np.all(np.isfinite(mass)) or np.any(mass < 0.0):
        raise InvalidParameterError("mass entries must be finite and nonnegative")
    total = math.fsum(mass.ravel().tolist())
    if abs(total - 1.0) > MASS_TOL:
        raise InvalidParameterError(
            f"mass sums to {total!r}, not 1 within {MASS_TOL}"
        )
    mass.setflags(write=False)
    return mass


@dataclass(frozen=True)
class JointPmf:
    """Joint law of two finite discrete observables.

    ``mass[r, c]`` is the probability of (row atom r, column atom c).
    Labels are opaque; integer positions drive every computation.
    """

    mass: np.ndarray
    rows: tuple = ()
    cols: tuple = ()

    def __post_init__(self):
        mass = _validate_mass(self.mass, 2)
        rows = tuple(self.rows) if self.rows else tuple(range(mass.shape[0]))
        cols = tuple(self.cols) if self.cols else tuple(range(mass.shape[1]))
        if len(rows) != mass.shape[0] or len(cols) != mass.shape[1]:
            raise InvalidParameterError("label lengths must match mass shape")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def transpose(self) -> "JointPmf":
        return JointPmf(self.mass.T.copy(), self.cols, self.rows)


@dataclass(frozen=True)
class TripletPmf:
    """Joint law of an ordered triple of finite discrete observables."""

    mass: np.ndarray
    a_labels: tuple = ()
    b_labels: tuple = ()
    c_labels: tuple = ()

    def __post_init__(self):
        mass = _validate_mass(self.mass, 3)
        labels = []
        for given, size in zip(
            (self.a_labels, self.b_labels, self.c_labels), mass.shape
        ):
            lab = tuple(given) if given else tuple(range(size))
            if len(lab) != size:
                raise InvalidParameterError("label lengths must match mass shape")
            labels.append(lab)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "a_labels", labels[0])
        object.__setattr__(self, "b_labels", labels[1])
        object.__setattr__(self, "c_labels", labels[2])


def _dropped(joint: JointPmf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass with zero-marginal atoms removed, plus the surviving marginals."""
    rm = joint.row_marginal()
    cm = joint.col_marginal()
    keep_r = rm > 0.0
    keep_c = cm > 0.0
    mass = joint.mass[np.ix_(keep_r, keep_c)]
    return mass, rm[keep_r], cm[keep_c]


def maximal_correlation(joint: JointPmf) -> float:
    """Maximal correlation of the two observables, in [0, 1].

    For finite alphabets this is the second-largest singular value of
    ``mass[r, c] / sqrt(rowmass[r] * colmass[c])`` after null atoms are
    dropped.  A degenerate side (one positive-mass atom) yields 0: constant
    observables correlate with nothing.
    """
    mass, rm, cm = _dropped(joint)
    if min(mass.shape) < 2:
        return 0.0
    # Scale by each square root separately: their product can underflow.
    q = mass / np.sqrt(rm)[:, None] / np.sqrt(cm)
    sv = np.linalg.svd(q, compute_uv=False)
    if abs(sv[0] - 1.0) > 1e-10:
        raise ArithmeticError(
            f"leading singular value {sv[0]!r} deviates from 1; joint is inconsistent"
        )
    return float(min(1.0, max(0.0, sv[1])))


def _subset_masks(n: int) -> np.ndarray:
    """Indicator matrix of all nonempty subsets of {0..n-1}, one row each."""
    idx = np.arange(1, 2**n)
    return ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def lambda_coefficient(
    joint: JointPmf, max_alphabet: int = DEFAULT_ALPHABET_CAP
) -> float:
    """Exact sup of |P(A&B) - P(A)P(B)| / sqrt(P(A)P(B)) over event pairs.

    Events are unions of atoms, enumerated exhaustively (2^k - 1 per side),
    so both alphabets must stay at or below ``max_alphabet`` after null
    atoms are dropped.
    """
    mass, rm, cm = _dropped(joint)
    n_r, n_c = mass.shape
    if n_r > max_alphabet or n_c > max_alphabet:
        raise AlphabetTooLargeError(
            f"alphabet sizes {mass.shape} exceed the exact-enumeration cap "
            f"{max_alphabet}"
        )
    if n_r == 0 or n_c == 0:
        return 0.0
    row_masks = _subset_masks(n_r)
    col_masks = _subset_masks(n_c)
    pa = row_masks @ rm
    pb = col_masks @ cm
    inter = row_masks @ mass  # inter[A, c] = P(A & {col c})
    best = 0.0
    chunk = 1024
    for start in range(0, col_masks.shape[0], chunk):
        cm_chunk = col_masks[start : start + chunk]
        pab = inter @ cm_chunk.T
        stat = np.abs(pab - pa[:, None] * pb[None, start : start + chunk])
        stat /= np.sqrt(pa[:, None] * pb[None, start : start + chunk])
        best = max(best, float(stat.max()))
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


def tensor_combine(
    blocks: Sequence[JointPmf], explosion_limit: int = DEFAULT_EXPLOSION_LIMIT
) -> JointPmf:
    """Joint law of (all row parts, all column parts) under block independence.

    The result is the product measure on tuple alphabets; with independent
    blocks the maximal correlation of the combination equals the blockwise
    maximum, which the test suite exercises on randomized blocks.
    """
    if not blocks:
        raise InvalidParameterError("need at least one block")
    n_rows = 1
    n_cols = 1
    for b in blocks:
        n_rows *= len(b.rows)
        n_cols *= len(b.cols)
    if n_rows * n_cols > explosion_limit:
        raise ExplosionLimitError(
            f"combined joint would hold {n_rows * n_cols} atoms "
            f"(limit {explosion_limit})"
        )
    mass = reduce(np.kron, (b.mass for b in blocks))
    rows = tuple(product(*(b.rows for b in blocks)))
    cols = tuple(product(*(b.cols for b in blocks)))
    return JointPmf(mass, rows, cols)


def joint_to_json(joint: JointPmf) -> str:
    """Serialize as {"rows": [...], "cols": [...], "mass": [[...]]}."""
    payload = {
        "rows": [list(r) if isinstance(r, tuple) else r for r in joint.rows],
        "cols": [list(c) if isinstance(c, tuple) else c for c in joint.cols],
        "mass": [[float(x) for x in row] for row in joint.mass],
    }
    return json.dumps(payload, sort_keys=True)


def joint_from_json(text: str) -> JointPmf:
    payload = json.loads(text)
    try:
        rows = tuple(tuple(r) if isinstance(r, list) else r for r in payload["rows"])
        cols = tuple(tuple(c) if isinstance(c, list) else c for c in payload["cols"])
        mass = np.asarray(payload["mass"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed joint payload: {exc}") from exc
    return JointPmf(mass, rows, cols)
