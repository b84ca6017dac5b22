"""Interlaced mixing coefficients over finite windows and gap certificates.

Finite-window values of the interlaced maximal-correlation coefficient are
computed exactly by enumerating every admissible pair of disjoint index
sets inside the window.  A value is a lower bound for the infinite-window
coefficient only when its law lost no mass (``truncation_error`` 0); a
truncated law is renormalized.  The certificate side turns a target level
epsilon into a separation gap that provably caps the coefficient for
product-of-indicators chains and everything built from them.  It takes
delta = epsilon, the identity lambda-to-rho map, which is deliberately
non-sharp: it asserts no quantitative comparison between the two
coefficients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .chains import (
    DEFAULT_MAX_WIDTH,
    MarkovChainSpec,
    TupleLaw,
    _require_survival,
    indicator_chain_spec,
    require_window_atoms,
    window_joint_pmf,
)
from .dependence import (
    JointPmf,
    lambda_coefficient,
    maximal_correlation,
    maximal_correlations,
)
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    WindowTooWideError,
)
from .pmf import _integer, _smallest

# longest window verify_absorbing_split enumerates, and the slack of its
# hypothesis checks
SPLIT_MAX_LENGTH = 6
SPLIT_ATOL = 1e-12
# fit_decay_rate discards coefficients at or below this numerical floor
DECAY_FLOOR = 1e-13
# pairs within this of the maximum count as attaining it, so pairs tied in
# exact arithmetic are not ordered by their last bits
TIE_TOLERANCE = 1e-14

__all__ = [
    "WindowSpec",
    "GapCertificate",
    "WindowScanResult",
    "IndicatorBoundReport",
    "AbsorbingSplitReport",
    "DecayFit",
    "enumerate_window_pairs",
    "rho_star_window",
    "lag_joint",
    "rho_markov",
    "gap_for_epsilon",
    "verify_indicator_bound",
    "verify_absorbing_split",
    "fit_decay_rate",
]


@dataclass(frozen=True)
class WindowSpec:
    """Disjoint index sets S, T inside {0..width-1} at distance >= gap."""

    width: int
    s: tuple[int, ...]
    t: tuple[int, ...]
    gap: int

    def __post_init__(self):
        for name in ("width", "gap"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        s = tuple(sorted(_integer(i, "index", 0) for i in self.s))
        t = tuple(sorted(_integer(i, "index", 0) for i in self.t))
        if not s or not t or set(s) & set(t):
            raise InvalidParameterError("S and T must be nonempty and disjoint")
        if max(s + t) >= self.width:
            raise InvalidParameterError("indices must lie inside the window")
        if min(abs(a - b) for a in s for b in t) < self.gap:
            raise InvalidParameterError("S and T are closer than the required gap")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class GapCertificate:
    """Separation gap m with the (epsilon, delta, gamma) chain that justifies it.

    gamma = min(1/9, (delta/3)^2), so 3*sqrt(gamma) <= delta and gamma <= 1/9;
    m is the smallest positive integer with a**m <= gamma.
    """

    a: float
    epsilon: float
    delta: float
    gamma: float
    m: int


@dataclass(frozen=True)
class WindowScanResult:
    """Supremum over enumerated window pairs, with the attaining pair."""

    value: float
    best: WindowSpec | None
    pair_count: int
    truncation_error: float

    @property
    def vacuous(self) -> bool:
        return self.pair_count == 0


def _window_pairs(
    width: int, gap: int
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Index tuples (S, T, S u T) of every admissible pair, in canonical order.

    S runs over the bitmasks of the window in ascending order.  T runs in
    ascending order over the nonempty submasks of the indices above min(S)
    at distance >= gap from all of S.
    """
    width, gap = _integer(width, "width", 1), _integer(gap, "gap", 1)
    if width > DEFAULT_MAX_WIDTH:
        raise WindowTooWideError(
            f"window width {width} exceeds the enumeration maximum {DEFAULT_MAX_WIDTH}"
        )
    full = (1 << width) - 1
    sets = [tuple(i for i in range(width) if mask >> i & 1) for mask in range(full + 1)]
    out = []
    for s in range(1, full + 1):
        near = 0  # indices closer than gap to S, S included
        for k in range(min(gap, width)):
            near |= s << k | s >> k
        allowed = full & ~near & -((s & -s) << 1)
        t = (-allowed) & allowed
        while t:
            out.append((sets[s], sets[t], sets[s | t]))
            t = (t - allowed) & allowed
    return out


def enumerate_window_pairs(width: int, gap: int) -> list[WindowSpec]:
    """All unordered pairs {S, T} of disjoint nonempty subsets at distance >= gap.

    Unordered because the coefficient is symmetric; each pair is oriented so
    the smallest index of S u T sits in S.  Returned in a fixed canonical
    order (ascending S bitmask, then T bitmask).
    """
    return [WindowSpec(width, s, t, gap) for s, t, _ in _window_pairs(width, gap)]


def rho_star_window(
    spec: MarkovChainSpec, width: int, gap: int, cap: int
) -> WindowScanResult:
    """Exact interlaced coefficient over all admissible pairs in the window.

    For each enumerated pair the joint law of (tuple over S, tuple over T)
    is computed exactly from kernel products, one window law per union,
    and the splits go to the batched maximal correlation.  The value is the
    maximum; the attaining pair is the first in canonical enumeration order
    within ``TIE_TOLERANCE`` of it, so it does not depend on rounding among
    pairs tied in exact arithmetic.  An empty enumeration (width <= gap)
    yields value 0 flagged as vacuous; its cap is checked all the same.  A
    window whose widest union exceeds the atom limit is refused up front.
    """
    pairs = _window_pairs(width, gap)
    require_window_atoms(cap, 0)  # the cap alone
    # refuse the first too-wide union, in enumeration order, before any law
    for size in dict.fromkeys(len(union) for _, _, union in pairs):
        require_window_atoms(cap, size)
    laws: dict[tuple[int, ...], TupleLaw] = {}

    def splits() -> Iterator[JointPmf]:
        for s, t, union in pairs:
            law = laws.get(union)
            if law is None:
                law = laws[union] = window_joint_pmf(spec, union, cap)
            yield law.split(s, t)

    values = maximal_correlations(splits())
    worst_err = max((law.truncation_error for law in laws.values()), default=0.0)
    best_val = max(values, default=0.0)
    best = next(
        (
            WindowSpec(width, s, t, gap)
            for (s, t, _), v in zip(pairs, values)
            if v > 0.0 and v >= best_val - TIE_TOLERANCE
        ),
        None,
    )
    return WindowScanResult(best_val, best, len(pairs), worst_err)


def lag_joint(spec: MarkovChainSpec, n: int, cap: int) -> tuple[JointPmf, float]:
    """Exact joint of (state at 0, state at n) under the chain's initial law.

    The split of the (0, n) window law; the escaped (truncated) mass is
    returned alongside.  Every gap at one cap reads the one kernel table the
    spec keeps for it, and a cap whose table would exceed the atom limit is
    refused before that table is built.
    """
    n, cap = _integer(n, "n", 1), _integer(cap, "cap", 1)
    law = window_joint_pmf(spec, (0, n), cap)
    return law.split((0,), (n,)), law.truncation_error


def rho_markov(spec: MarkovChainSpec, n: int, cap: int) -> float:
    """Maximal correlation across a gap of n steps, via the n-step kernel.

    For a Markov chain this bivariate reduction carries the full coefficient
    between past and future separated by n.
    """
    joint, _ = lag_joint(spec, n, cap)
    return maximal_correlation(joint)


def gap_for_epsilon(a: float, epsilon: float) -> GapCertificate:
    """Certified gap: delta = epsilon, gamma = min(1/9, (delta/3)^2), and the
    smallest positive m with a**m <= gamma (ties take the smaller m).
    """
    _require_survival(a)
    if not (0.0 < epsilon <= 1.0):
        raise InvalidParameterError("epsilon must lie in (0, 1]")
    delta = float(epsilon)
    gamma = min(1.0 / 9.0, (delta / 3.0) ** 2)
    if gamma < sys.float_info.min:  # a**m steps too coarse to find the smallest m
        raise InvalidParameterError(
            f"epsilon {epsilon!r} is too small: (epsilon / 3)**2 underflows"
        )
    m = _smallest(lambda k: a**k <= gamma, math.ceil(math.log(gamma) / math.log(a)), 1)
    return GapCertificate(a=a, epsilon=epsilon, delta=delta, gamma=gamma, m=m)


@dataclass(frozen=True)
class IndicatorBoundReport:
    """Outcome of checking the certified gap on an exact indicator-chain window."""

    p0: float
    a: float
    epsilon: float
    certificate: GapCertificate
    width: int
    value: float
    margin: float
    pair_count: int
    vacuous: bool
    passed: bool
    truncation_error: float = 0.0


def verify_indicator_bound(
    p0: float, a: float, epsilon: float, width: int
) -> IndicatorBoundReport:
    """Check that the certified gap caps the indicator chain's exact window
    coefficient at epsilon, recording the margin."""
    cert = gap_for_epsilon(a, epsilon)
    scan = rho_star_window(indicator_chain_spec(p0, a), width, cert.m, cap=1)
    return IndicatorBoundReport(
        p0=p0,
        a=a,
        epsilon=epsilon,
        certificate=cert,
        width=width,
        value=scan.value,
        margin=epsilon - scan.value,
        pair_count=scan.pair_count,
        vacuous=scan.vacuous,
        passed=scan.value <= epsilon,
        truncation_error=scan.truncation_error,
    )


@dataclass(frozen=True)
class AbsorbingSplitReport:
    """Lambda coefficient between odd and even observation groups of an
    absorbing binary chain, against the 3*sqrt(epsilon) cap."""

    epsilon: float
    hypothesis_ok: bool
    hypothesis_note: str
    value: float
    bound: float
    margin: float
    passed: bool
    truncation_error: float = 0.0


def verify_absorbing_split(law: TupleLaw, epsilon: float) -> AbsorbingSplitReport:
    """Exact lambda coefficient between odd- and even-position groups.

    Hypotheses checked on the supplied window law: epsilon <= 1/9, state 0 is
    absorbing (a 0 at one index forces 0 at the next), and every positive-
    probability history leaves the next coordinate at 0 with probability at
    least 1 - epsilon.  A violated hypothesis produces a report flagged
    ``hypothesis_ok=False`` rather than an assertion failure; the cap simply
    does not apply there.
    """
    if not (0.0 < epsilon):
        raise InvalidParameterError("epsilon must be positive")
    length = len(law.indices)
    if length > SPLIT_MAX_LENGTH:
        raise WindowTooWideError(
            f"window of {length} coordinates exceeds the enumeration cap "
            f"{SPLIT_MAX_LENGTH}"
        )
    binary = law.mass[(slice(0, 2),) * length]
    if np.count_nonzero(binary) != np.count_nonzero(law.mass):
        raise InvalidParameterError("window law must be over binary states")

    def fail(note: str) -> AbsorbingSplitReport:
        return AbsorbingSplitReport(
            epsilon=epsilon,
            hypothesis_ok=False,
            hypothesis_note=note,
            value=float("nan"),
            bound=3.0 * math.sqrt(epsilon),
            margin=float("nan"),
            passed=False,
        )

    if epsilon > 1.0 / 9.0:
        return fail(f"epsilon={epsilon} exceeds 1/9")
    for n in range(1, length):
        # head[h + (x,)]: mass of history h at the first n indices, then x
        head = binary.sum(axis=tuple(range(n + 1, length)))
        prefix = head.sum(axis=-1)
        for h in zip(*(c.tolist() for c in np.nonzero(prefix > 0.0))):
            cond_zero = head[h][0] / prefix[h]
            if h[-1] == 0 and cond_zero < 1.0 - SPLIT_ATOL:
                return fail(f"state 0 not absorbing after history {h}")
            if cond_zero < 1.0 - epsilon - SPLIT_ATOL:
                return fail(
                    f"P(next=0 | history {h}) = {cond_zero:.6f} < 1 - epsilon"
                )

    odd = law.indices[0::2]
    even = law.indices[1::2]
    value = lambda_coefficient(law.split(odd, even))
    bound = 3.0 * math.sqrt(epsilon)
    return AbsorbingSplitReport(
        epsilon=epsilon,
        hypothesis_ok=True,
        hypothesis_note="",
        value=value,
        bound=bound,
        margin=bound - value,
        passed=value <= bound,
        truncation_error=law.truncation_error,
    )


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float


def fit_decay_rate(values: Sequence[tuple[int, float]]) -> DecayFit:
    """Least-squares slope of log(coefficient) against the gap.

    Points at or below the numerical floor are discarded; at least three
    usable points are required.  The returned rate is exp(slope).
    """
    usable = [(n, c) for n, c in values if c > DECAY_FLOOR]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 points above {DECAY_FLOOR:.0e}, got {len(usable)}"
        )
    x = np.array([n for n, _ in usable], dtype=np.float64)
    y = np.log([c for _, c in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return DecayFit(rate=float(np.exp(slope)), r_squared=r2)
