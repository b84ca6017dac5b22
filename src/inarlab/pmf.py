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

from .errors import InvalidParameterError, SamplingBudgetError

DEFAULT_TAIL_BUDGET = 1e-12
MASS_TOL = 1e-12
# Cells per float64 partial sum in total_off_unit.  A sum of B nonnegative
# terms, added in any order, is within (B - 1) * 2**-53 of the exact sum,
# relatively (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
_MASS_BLOCK = 1024
# Largest state a Poisson or binomial table may hold, checked before the table
# is allocated.  poisson_pmf's one table has mean + 12 sqrt(mean) + 40 states,
# so for it this refuses means above about 2.08e6.
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


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on ``{0..K}`` plus explicit mass beyond ``K``.

    Invariants enforced at construction: entries finite and nonnegative,
    ``sum(probs) + tail_mass == 1`` within ``1e-12``, ``tail_mass >= 0``.
    Instances are immutable and safe to share: the law owns its array (see
    :func:`_owned`), so the caller's reference to it turns read-only too.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = _owned(self.probs, np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidParameterError("probs must be a nonempty 1-D array")
        _require_finite_nonnegative(probs)
        tail = float(self.tail_mass)
        if not math.isfinite(tail) or tail < -1e-15:
            raise InvalidParameterError("tail_mass must be nonnegative")
        tail = max(tail, 0.0)
        total = total_off_unit(probs, tail)
        if total is not None:
            raise InvalidParameterError(
                f"total mass {total!r} differs from 1 by more than {MASS_TOL}"
            )
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


def _lost_mass(cells: np.ndarray) -> float:
    """``max(0, 1 - fsum(cells))``: the mass a table of nonnegative cells misses."""
    return max(0.0, 1.0 - math.fsum(cells[cells != 0.0].tolist()))


def _padded(probs: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` entries of ``probs``, zero-padded to ``size``."""
    return np.pad(probs[:size], (0, max(0, size - probs.size)))


def _require_finite_nonnegative(mass: np.ndarray) -> None:
    if not np.isfinite(mass).all() or (mass < 0.0).any():
        raise InvalidParameterError("mass entries must be finite and nonnegative")


def _owned(array, dtype) -> np.ndarray:
    """``array`` as a read-only ``dtype`` array, for a holder.

    A holder owns what it is handed: an array of this dtype is held uncopied
    in its own layout (C, or Fortran for a transposed step-major path buffer)
    and made read-only, the caller's reference included, so no alias changes
    it after its one check and the widest laws are not doubled.
    A numeric conversion that does not cast back to the same values (NaN or
    1.7 to int64, 2**53 + 1 to float64) is refused instead of held."""
    source = np.asarray(array)
    with np.errstate(invalid="ignore"):  # NaN to int64 is refused below
        out = np.asarray(source, dtype=dtype, order="A")  # 0-d stays 0-d, for its holder
    copied = out is not source and source.dtype.kind in "biuf"
    if copied and not np.array_equal(out.astype(source.dtype), source, equal_nan=True):
        raise InvalidParameterError(f"converting to {np.dtype(dtype)} would change values")
    out.setflags(write=False)
    return out


def _integer(value, name: str, least: int | None = None, error=InvalidParameterError) -> int:
    """``value`` as an int of at least ``least``: numpy integers pass, while
    bools and non-integers (1.5, 2.0) are refused rather than truncated, and
    so is an integer below ``least`` (past 1024 bits, named by its size)."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        got = repr(value) if value.bit_length() <= 1024 else f"a {value.bit_length()}-bit integer"
        raise error(f"{name} must be at least {least}, got {got}")
    return value


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a stream index; the derived generator is a pure function
    of the pair, so independent streams never need coordination."""

    root_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("root_seed", "stream_index"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0))
        if self.root_seed >= 2**64:
            raise InvalidParameterError("root_seed must be a 64-bit unsigned integer")

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
    k = _integer(k, "state", 0)
    probs = np.zeros(k + 1)
    probs[k] = 1.0
    return Pmf(probs, 0.0)


# ---------------------------------------------------------------------------
# Loader's saddle-point terms (C. Loader, "Fast and Accurate Computation of
# Binomial Probabilities", 2000).  Every Poisson term, binomial cell and
# chi-square tail in the package comes from these two functions.

# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n / e)**n) at n = 0, 1/2, 1, ..., 15
# (tests/test_pmf.py derives each value with stdlib decimal).
_STIRLERR_HALVES = np.array([
    0.0, 0.15342640972002736, 0.08106146679532726, 0.05481412105191765,
    0.0413406959554093, 0.03316287351993629, 0.02767792568499834,
    0.023746163656297496, 0.020790672103765093, 0.018488450532673187,
    0.016644691189821193, 0.015134973221917378, 0.013876128823070748,
    0.012810465242920227, 0.01189670994589177, 0.011104559758206917,
    0.010411265261972096, 0.009799416126158804, 0.009255462182712733,
    0.008768700134139386, 0.00833056343336287, 0.00793411456431402,
    0.007573675487951841, 0.007244554301320383, 0.00694284010720953,
    0.006665247032707682, 0.006408994188004207, 0.006171712263039458,
    0.0059513701127588475, 0.0057462165130101155, 0.005554733551962801,
])
_STIRLERR_TABLE_MAX = 15.0
# 1/12, 1/360, 1/1260, 1/1680, 1/1188: Stirling's series for n > 15
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
_BD0_TERMS = 10  # the tenth series term is below 1e-18 of the sum
_VELTKAMP = 2.0**27 + 1.0


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """Stirling's error ln n! - ln(sqrt(2 pi n) (n / e)**n) at integers and
    half-integers ``n >= 0``: the table up to 15, the series above."""
    big = np.maximum(n, _STIRLERR_TABLE_MAX + 0.5)  # the series, never at n <= 15
    r = 1.0 / (big * big)
    out = (_S0 - (_S1 - (_S2 - (_S3 - _S4 * r) * r) * r) * r) / big
    small = np.flatnonzero(n <= _STIRLERR_TABLE_MAX)
    out[small] = _STIRLERR_HALVES[(2.0 * n[small]).astype(np.intp)]
    return out


def _bd0(x: np.ndarray, m, d: np.ndarray) -> np.ndarray:
    """Deviance term x ln(x / m) + m - x for ``x, m > 0``, given ``d = x - m``
    (the caller's d may carry more of the exact difference than x - m does).

    Where |d| < 0.1 (x + m) it is Loader's series in v = d / (x + m), which
    never cancels; its terms fall by v**2 < 0.01 each.
    """
    with np.errstate(over="ignore"):  # d / m = inf gives bd0 = inf: a zero term
        out = x * np.log1p(d / m) - d  # ln1p(d / m) keeps d's precision in ln(x / m)
    s = x + m
    near = np.flatnonzero(np.abs(d) < 0.1 * s)
    dn = d[near]
    v = dn / s[near]
    total = dn * v
    ej = 2.0 * x[near] * v
    v2 = v * v
    for j in range(1, _BD0_TERMS + 1):
        ej *= v2
        total += ej / (2 * j + 1)
    out[near] = total
    return out


def _poisson_terms(k: np.ndarray, mean: float) -> np.ndarray:
    """``exp(-mean) mean**k / Gamma(k + 1)`` at integers or half-integers k > 0."""
    return np.exp(-_stirlerr(k) - _bd0(k, mean, k - mean)) / np.sqrt(2.0 * math.pi * k)


def _binomial_cells(x: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """``P(Bin(n, p) = x)`` cell by cell, for 1-D integer arrays with
    ``0 <= x <= n``.  Each cell depends only on its own (x, n, p), so a table
    built from any selection of cells matches cell for cell."""
    if p == 0.0:
        return (x == 0).astype(np.float64)
    if p == 1.0:
        return (x == n).astype(np.float64)
    q = 1.0 - p
    out = np.empty(x.size)
    first, last = x == 0, x == n  # both at n = 0, where either gives 1
    # 1 - p is exact for p >= 1/2, and p**n needs no logarithm
    n0 = n[first].astype(np.float64)
    out[first] = np.power(q, n0) if p >= 0.5 else np.exp(n0 * math.log1p(-p))
    out[last] = np.power(p, n[last].astype(np.float64))
    inner = np.flatnonzero(~(first | last))
    xi, ni = x[inner], n[inner]
    stirlerr = _stirlerr(np.arange(ni.max(initial=0) + 1.0))  # gathered, not recomputed
    xf, nf = xi.astype(np.float64), ni.astype(np.float64)
    # x - n p to within rounding of itself, not of n p: n * p_hi is exact
    # for n < 2**27, since p_hi keeps 26 bits of p (Veltkamp's split)
    split = _VELTKAMP * p
    p_hi = split - (split - p)
    d = (xf - nf * p_hi) - nf * (p - p_hi)
    lc = (
        stirlerr[ni] - stirlerr[xi] - stirlerr[ni - xi]
        - _bd0(xf, nf * p, d) - _bd0(nf - xf, nf * q, -d)
    )
    out[inner] = np.exp(lc) / np.sqrt(2.0 * math.pi * (xf * (nf - xf) / nf))
    return out


def _smallest(pred, start: int, lo: int = 0) -> int:
    """Smallest integer ``n >= lo`` with ``pred(n)``, for a ``pred`` that stays
    true once true and holds somewhere: a gallop from the estimate ``start``
    in doubling steps, then bisection, so about 2 log2 |start - n| calls."""
    good = bad = max(start, lo)
    step = 1
    if pred(good):
        while (bad := good - step) >= lo and pred(bad):
            good, step = bad, 2 * step
        bad = max(bad, lo - 1)  # below lo counts as false
    else:
        while not pred(good := bad + step):
            bad, step = good, 2 * step
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if pred(mid) else (mid, good)
    return good


def poisson_pmf(mean: float, tail_budget: float = DEFAULT_TAIL_BUDGET) -> Pmf:
    """Poisson law truncated at the smallest K whose tail mass is <= tail_budget.

    One table of ``mean + 12 sqrt(mean) + 40`` states is built; a budget its
    whole ``fsum`` misses is refused.  ``tail_mass`` is exactly ``1 - fsum(probs)``,
    which never rises with K, so ``_smallest`` finds the smallest such K in
    double precision.  Terms are Loader's saddle-point form, a few ulps each.
    """
    if not (mean > 0.0) or not math.isfinite(mean):
        raise InvalidParameterError("mean must be positive and finite")
    if not (0.0 < tail_budget < 1.0):
        raise InvalidParameterError("tail_budget must lie in (0, 1)")

    k_hi = int(mean + 12.0 * math.sqrt(mean) + 40.0)
    if k_hi > _MAX_TABLE_STATE:
        raise InvalidParameterError(
            f"mean {mean:.3e} needs a table beyond state {_MAX_TABLE_STATE}"
        )
    terms = np.empty(k_hi + 1)
    terms[0] = math.exp(-mean)
    terms[1:] = _poisson_terms(np.arange(1.0, k_hi + 1.0), mean)

    def tail_at(j: int) -> float:
        return _lost_mass(terms[: j + 1])

    if tail_at(k_hi) > tail_budget:
        raise InvalidParameterError(
            "tail_budget is unattainable in double precision for this mean"
        )
    guess = int(np.searchsorted(np.cumsum(terms), 1.0 - tail_budget))
    cut = _smallest(lambda j: tail_at(j) <= tail_budget, min(guess, k_hi))
    return Pmf(terms[: cut + 1], tail_at(cut))


def binomial_pmf(n: int, p: float) -> Pmf:
    """Exact Binomial(n, p) table with zero tail mass; n = 0 is a point mass at 0."""
    n = _integer(n, "n", 0)
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError("p must lie in [0, 1]")
    if n > _MAX_TABLE_STATE:
        raise InvalidParameterError(f"n = {n} needs a table beyond state {_MAX_TABLE_STATE}")
    return Pmf(_binomial_cells(np.arange(n + 1), np.full(n + 1, n), p), 0.0)


def binomial_table(n: int, a: float) -> np.ndarray:
    """``table[y, z] = P(Bin(y, a) = z)`` for ``0 <= y, z <= n``.

    Row y equals ``binomial_pmf(y, a).probs`` bit for bit, zero-padded: the
    lower triangle's cells are computed in one call, each as in that row.
    """
    rows, cols = np.tril_indices(n + 1)
    table = np.zeros((n + 1, n + 1))
    table[rows, cols] = _binomial_cells(cols, rows, a)
    return table


def convolve(p: Pmf, q: Pmf) -> Pmf:
    """Law of the sum of independent draws.

    The tabulated parts are convolved in full; every cross term touching
    either tail is pushed into the result's tail_mass, which therefore
    equals ``p.tail + q.tail - p.tail * q.tail`` up to rounding.
    """
    out = np.convolve(p.probs, q.probs)
    return Pmf(out, _lost_mass(out))


def thin(p: Pmf, a: float) -> Pmf:
    """Binomial thinning: the mixture sum_y p(y) * Binomial(y, a).

    The tabulated support cannot grow, so the input tail mass is carried
    through unchanged (conservatively: thinned tail states could land
    anywhere, including below K).
    """
    if not (0.0 < a < 1.0):
        raise InvalidParameterError("thinning parameter must lie in (0, 1)")
    out = p.probs @ binomial_table(p.max_state, a)
    return Pmf(np.clip(out, 0.0, None), _lost_mass(out))


def total_variation(p: Pmf, q: Pmf) -> float:
    """Worst-case total variation distance between the untruncated laws.

    Half the L1 distance of the zero-padded tables, plus half the summed
    tail masses (the tails could be disjoint).  Symmetric by construction.
    """
    n = max(p.probs.size, q.probs.size)
    core = math.fsum(np.abs(_padded(p.probs, n) - _padded(q.probs, n)).tolist())
    return 0.5 * (core + p.tail_mass + q.tail_mass)


def _require_sampleable(p: Pmf) -> None:
    if p.tail_mass > DEFAULT_TAIL_BUDGET:
        raise SamplingBudgetError(
            f"tail mass {p.tail_mass:.3e} exceeds sampling threshold "
            f"{DEFAULT_TAIL_BUDGET:.3e}; rebuild the pmf with a smaller tail budget"
        )
