"""Exact arithmetic on truncated distributions over the nonnegative integers.

Every distribution is carried as a finite probability vector over the
states ``0..K`` together with an explicit ``tail_mass`` for everything
beyond ``K``.  Operations propagate tail mass conservatively, so each
"exact" number downstream comes with a rigorous truncation budget instead
of a silent error.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special._ufuncs import _binom_pmf  # the ufunc behind scipy.stats.binom.pmf

from .errors import InvalidParameterError, SamplingBudgetError

DEFAULT_TAIL_BUDGET = 1e-12
MASS_TOL = 1e-12
# Cells per float64 partial sum in total_off_unit.  A sum of B nonnegative
# terms, added in any order, is within (B - 1) * 2**-53 of the exact sum,
# relatively (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
_MASS_BLOCK = 1024
# Largest state a Poisson or binomial table may hold, checked before the table
# is allocated.  poisson_pmf's doubling search stops past 1e6, so for it this
# only refuses means above about 2.08e6, whose first table is wider.
_MAX_TABLE_STATE = 1 << 21

__all__ = [
    "DEFAULT_TAIL_BUDGET",
    "Pmf",
    "SeedSpec",
    "point_mass",
    "poisson_pmf",
    "binomial_pmf",
    "binomial_table",
    "convolve",
    "thin",
    "total_variation",
]


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on ``{0..K}`` plus explicit mass beyond ``K``.

    Invariants enforced at construction: entries in ``[0, 1]``,
    ``sum(probs) + tail_mass == 1`` within ``1e-12``, ``tail_mass >= 0``.
    Instances are immutable (the array is made read-only) and safe to share.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidParameterError("probs must be a nonempty 1-D array")
        if not np.all(np.isfinite(probs)):
            raise InvalidParameterError("probs must be finite")
        if np.any(probs < 0.0) or np.any(probs > 1.0 + 1e-12):
            raise InvalidParameterError("probs entries must lie in [0, 1]")
        tail = float(self.tail_mass)
        if not math.isfinite(tail) or tail < -1e-15:
            raise InvalidParameterError("tail_mass must be nonnegative")
        tail = max(tail, 0.0)
        total = total_off_unit(probs, tail)
        if total is not None:
            raise InvalidParameterError(
                f"total mass {total!r} differs from 1 by more than {MASS_TOL}"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", tail)

    @property
    def max_state(self) -> int:
        """Largest tabulated state K."""
        return self.probs.size - 1

    def mean(self) -> float:
        """Mean of the tabulated part (a lower bound when tail_mass > 0)."""
        k = np.arange(self.probs.size)
        return float(k @ self.probs)


def total_off_unit(cells: np.ndarray, tail: float = 0.0) -> float | None:
    """``math.fsum(cells) + tail`` when it is not within MASS_TOL of 1, else None.

    ``cells`` must be finite and nonnegative.  Beyond four blocks, the cells
    are summed in float64 blocks and the partials fsummed; when both ends of
    the total's error band pass, no exact sum is taken.  Every other input
    takes the exact sum, so verdict and total are always the exact sum's.
    """
    flat = cells.reshape(-1)
    if flat.size > 4 * _MASS_BLOCK:
        full = flat.size - flat.size % _MASS_BLOCK
        partials = flat[:full].reshape(-1, _MASS_BLOCK).sum(axis=1).tolist()
        approx = math.fsum(partials + [float(flat[full:].sum())])
        # twice the error bound, so the rounding of the ends is covered too
        band = 2 * (_MASS_BLOCK + 1) * 2.0**-53 * approx
        if all(abs(end + tail - 1.0) <= MASS_TOL for end in (approx - band, approx + band)):
            return None
    total = math.fsum(flat[flat != 0.0].tolist()) + tail  # zeros add nothing
    return None if abs(total - 1.0) <= MASS_TOL else total


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a stream index; the derived generator is a pure function
    of the pair, so independent streams never need coordination."""

    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("root_seed", "stream_index"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not (0 <= self.root_seed < 2**64):
            raise InvalidParameterError("root_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise InvalidParameterError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.root_seed, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def stream(self, index: int) -> "SeedSpec":
        """Sibling spec on the same root with a different stream index."""
        return SeedSpec(self.root_seed, index)


def point_mass(k: int = 0) -> Pmf:
    """Degenerate distribution at state ``k``."""
    if k < 0:
        raise InvalidParameterError("state must be nonnegative")
    probs = np.zeros(k + 1)
    probs[k] = 1.0
    return Pmf(probs, 0.0)


def poisson_pmf(mean: float, tail_budget: float = DEFAULT_TAIL_BUDGET) -> Pmf:
    """Poisson law truncated at the smallest K whose tail mass is <= tail_budget.

    The recorded ``tail_mass`` is exactly ``1 - fsum(probs)``; the truncation
    point is determined with compensated partial sums, so the smallest-K
    contract holds in double precision.
    """
    if not (mean > 0.0) or not math.isfinite(mean):
        raise InvalidParameterError("mean must be positive and finite")
    if not (0.0 < tail_budget < 1.0):
        raise InvalidParameterError("tail_budget must lie in (0, 1)")

    k_hi = int(mean + 12.0 * math.sqrt(mean) + 40.0)
    log_mean = math.log(mean)
    while True:
        if k_hi > _MAX_TABLE_STATE:
            raise InvalidParameterError(
                f"mean {mean:.3e} needs a table beyond state {_MAX_TABLE_STATE}"
            )
        k = np.arange(k_hi + 1)
        terms = np.exp(k * log_mean - mean - special.gammaln(k + 1.0))
        if 1.0 - math.fsum(terms.tolist()) <= tail_budget:
            break
        if k_hi > 1_000_000:
            raise InvalidParameterError(
                "tail_budget is unattainable in double precision for this mean"
            )
        k_hi *= 2

    def tail_at(j: int) -> float:
        return 1.0 - math.fsum(terms[: j + 1].tolist())

    cut = int(np.searchsorted(np.cumsum(terms), 1.0 - tail_budget))
    cut = max(cut - 3, 0)
    while tail_at(cut) > tail_budget:
        cut += 1
    while cut > 0 and tail_at(cut - 1) <= tail_budget:
        cut -= 1
    return Pmf(terms[: cut + 1], max(0.0, tail_at(cut)))


def binomial_pmf(n: int, p: float) -> Pmf:
    """Exact Binomial(n, p) table with zero tail mass; n = 0 is a point mass at 0."""
    if n < 0 or int(n) != n:
        raise InvalidParameterError("n must be a nonnegative integer")
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError("p must lie in [0, 1]")
    n = int(n)
    if n > _MAX_TABLE_STATE:
        raise InvalidParameterError(f"n = {n} needs a table beyond state {_MAX_TABLE_STATE}")
    if n == 0:
        return point_mass(0)
    return Pmf(np.clip(_binom_pmf(np.arange(n + 1), n, p), 0.0, 1.0), 0.0)


def binomial_table(n: int, a: float) -> np.ndarray:
    """``table[y, z] = P(Bin(y, a) = z)`` for ``0 <= y, z <= n``.

    Row y equals ``binomial_pmf(y, a).probs`` bit for bit, zero-padded; the
    ufunc gives NaN for z > y, which ``tril`` sets to 0.
    """
    y = np.arange(n + 1)
    return np.clip(np.tril(_binom_pmf(y[None, :], y[:, None], a)), 0.0, 1.0)


def convolve(p: Pmf, q: Pmf) -> Pmf:
    """Law of the sum of independent draws.

    The tabulated parts are convolved in full; every cross term touching
    either tail is pushed into the result's tail_mass, which therefore
    equals ``p.tail + q.tail - p.tail * q.tail`` up to rounding.
    """
    out = np.convolve(p.probs, q.probs)
    tail = max(0.0, 1.0 - math.fsum(out.tolist()))
    return Pmf(out, tail)


def thin(p: Pmf, a: float) -> Pmf:
    """Binomial thinning: the mixture sum_y p(y) * Binomial(y, a).

    The tabulated support cannot grow, so the input tail mass is carried
    through unchanged (conservatively: thinned tail states could land
    anywhere, including below K).
    """
    if not (0.0 < a < 1.0):
        raise InvalidParameterError("thinning parameter must lie in (0, 1)")
    out = p.probs @ binomial_table(p.max_state, a)
    tail = max(0.0, 1.0 - math.fsum(out.tolist()))
    return Pmf(np.clip(out, 0.0, None), tail)


def total_variation(p: Pmf, q: Pmf) -> float:
    """Worst-case total variation distance between the untruncated laws.

    Half the L1 distance of the zero-padded tables, plus half the summed
    tail masses (the tails could be disjoint).  Symmetric by construction.
    """
    n = max(p.probs.size, q.probs.size)
    pp = np.zeros(n)
    qq = np.zeros(n)
    pp[: p.probs.size] = p.probs
    qq[: q.probs.size] = q.probs
    core = math.fsum(np.abs(pp - qq).tolist())
    return 0.5 * (core + p.tail_mass + q.tail_mass)


def _sample_with_rng(p: Pmf, rng: np.random.Generator, count: int) -> np.ndarray:
    """Inverse-CDF sampling from the tabulated part using an existing stream."""
    cdf = np.cumsum(p.probs)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(idx, p.max_state).astype(np.int64)


def _require_sampleable(p: Pmf) -> None:
    if p.tail_mass > DEFAULT_TAIL_BUDGET:
        raise SamplingBudgetError(
            f"tail mass {p.tail_mass:.3e} exceeds sampling threshold "
            f"{DEFAULT_TAIL_BUDGET:.3e}; rebuild the pmf with a smaller tail budget"
        )
