"""Interlaced mixing coefficients over finite windows and gap certificates.

Finite-window values of the interlaced maximal-correlation coefficient are
computed exactly by enumerating every admissible pair of disjoint index
sets inside the window; they are certified lower bounds for the
infinite-window coefficient.  The certificate side turns a pluggable
lambda-to-rho bound into a separation gap that provably caps the
coefficient for product-of-indicators chains and everything built from
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chains import (
    MarkovChainSpec,
    TupleLaw,
    indicator_chain_spec,
    transition_matrix,
    window_joint_pmf,
)
from .dependence import (
    DEFAULT_EXPLOSION_LIMIT,
    JointPmf,
    lambda_coefficient,
    maximal_correlation,
)
from .errors import (
    InsufficientDataError,
    InvalidBoundError,
    InvalidParameterError,
    WindowTooWideError,
)

DEFAULT_MAX_WIDTH = 8

__all__ = [
    "WindowSpec",
    "DeltaBound",
    "GapCertificate",
    "WindowScanResult",
    "IndicatorBoundReport",
    "AbsorbingSplitReport",
    "DecayFit",
    "IDENTITY_BOUND",
    "register_delta_bound",
    "get_delta_bound",
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
        s = tuple(sorted(int(i) for i in self.s))
        t = tuple(sorted(int(i) for i in self.t))
        if not s or not t or set(s) & set(t):
            raise InvalidParameterError("S and T must be nonempty and disjoint")
        if min(s + t) < 0 or max(s + t) >= self.width:
            raise InvalidParameterError("indices must lie inside the window")
        if min(abs(a - b) for a in s for b in t) < self.gap:
            raise InvalidParameterError("S and T are closer than the required gap")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class DeltaBound:
    """Monotone map from a target rho level to a sufficient lambda level."""

    name: str
    evaluator: Callable[[float], float]


IDENTITY_BOUND = DeltaBound("identity", lambda eps: min(eps, 1.0))
# The identity map is deliberately non-sharp: it keeps the certificate
# pipeline runnable without asserting any particular quantitative
# lambda-to-rho comparison.  Register sharper bounds as needed.

_BOUND_REGISTRY: dict[str, DeltaBound] = {IDENTITY_BOUND.name: IDENTITY_BOUND}


def register_delta_bound(bound: DeltaBound) -> None:
    _BOUND_REGISTRY[bound.name] = bound


def get_delta_bound(name: str) -> DeltaBound:
    try:
        return _BOUND_REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown delta bound {name!r}; registered: {sorted(_BOUND_REGISTRY)}"
        ) from None


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


def enumerate_window_pairs(
    width: int, gap: int, max_width: int = DEFAULT_MAX_WIDTH
) -> list[WindowSpec]:
    """All unordered pairs {S, T} of disjoint nonempty subsets at distance >= gap.

    Unordered because the coefficient is symmetric; each pair is oriented so
    the smallest index of S u T sits in S.  Returned in a fixed canonical
    order (ascending S bitmask, then T bitmask).
    """
    if width < 1 or gap < 1:
        raise InvalidParameterError("width and gap must be positive")
    if width > max_width:
        raise WindowTooWideError(
            f"window width {width} exceeds the enumeration maximum {max_width}"
        )
    out: list[WindowSpec] = []
    full = 1 << width
    for s_mask in range(1, full):
        s = [i for i in range(width) if s_mask >> i & 1]
        rest = [i for i in range(width) if not s_mask >> i & 1 and i > s[0]]
        for t_mask in range(1, 1 << len(rest)):
            t = [rest[i] for i in range(len(rest)) if t_mask >> i & 1]
            if min(abs(x - y) for x in s for y in t) >= gap:
                out.append(WindowSpec(width, tuple(s), tuple(t), gap))
    return out


def rho_star_window(
    spec: MarkovChainSpec,
    width: int,
    gap: int,
    cap: int,
    explosion_limit: int = DEFAULT_EXPLOSION_LIMIT,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> WindowScanResult:
    """Exact interlaced coefficient over all admissible pairs in the window.

    For each enumerated pair the joint law of (tuple over S, tuple over T)
    is computed exactly from kernel products and fed to the maximal
    correlation; the reduction runs in canonical enumeration order, so the
    attaining pair is reproducible.  An empty enumeration (width <= gap)
    yields value 0 flagged as vacuous.
    """
    pairs = enumerate_window_pairs(width, gap, max_width)
    laws: dict[tuple[int, ...], TupleLaw] = {}
    best_val = 0.0
    best: WindowSpec | None = None
    worst_err = 0.0
    for pair in pairs:
        union = tuple(sorted(pair.s + pair.t))
        law = laws.get(union)
        if law is None:
            law = window_joint_pmf(spec, union, cap, explosion_limit)
            laws[union] = law
        worst_err = max(worst_err, law.truncation_error)
        value = maximal_correlation(law.split(pair.s, pair.t))
        if value > best_val:
            best_val = value
            best = pair
    return WindowScanResult(best_val, best, len(pairs), worst_err)


def lag_joint(spec: MarkovChainSpec, n: int, cap: int) -> tuple[JointPmf, float]:
    """Exact joint of (state at 0, state at n) under the chain's initial law.

    Built from the n-step product of the truncated kernel and renormalized;
    the escaped (truncated) mass is returned alongside.
    """
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if cap < 1:
        raise InvalidParameterError("cap must be positive")
    support = cap + 1
    trans = transition_matrix(spec, cap)[:, :support]
    init = np.zeros(support)
    m = min(spec.initial.probs.size, support)
    init[:m] = spec.initial.probs[:m]
    step = np.linalg.matrix_power(trans, n)
    joint = init[:, None] * step
    kept = math.fsum(joint.ravel().tolist())
    escaped = max(0.0, 1.0 - kept)
    return JointPmf(joint / kept), escaped


def rho_markov(spec: MarkovChainSpec, n: int, cap: int) -> float:
    """Maximal correlation across a gap of n steps, via the n-step kernel.

    For a Markov chain this bivariate reduction carries the full coefficient
    between past and future separated by n.
    """
    joint, _ = lag_joint(spec, n, cap)
    return maximal_correlation(joint)


def gap_for_epsilon(a: float, epsilon: float, bound: DeltaBound) -> GapCertificate:
    """Certified gap: delta from the bound, gamma = min(1/9, (delta/3)^2),
    and the smallest positive m with a**m <= gamma (ties take the smaller m).
    """
    if not (0.0 < a < 1.0):
        raise InvalidParameterError("a must lie in (0, 1)")
    if not (0.0 < epsilon <= 1.0):
        raise InvalidParameterError("epsilon must lie in (0, 1]")
    delta = float(bound.evaluator(epsilon))
    if not math.isfinite(delta) or delta <= 0.0:
        raise InvalidBoundError(
            f"delta bound {bound.name!r} returned {delta!r} for epsilon={epsilon}"
        )
    delta = min(delta, 1.0)
    gamma = min(1.0 / 9.0, (delta / 3.0) ** 2)
    m = max(1, math.ceil(math.log(gamma) / math.log(a)))
    while a**m > gamma:
        m += 1
    while m > 1 and a ** (m - 1) <= gamma:
        m -= 1
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
    p0: float,
    a: float,
    epsilon: float,
    bound: DeltaBound,
    width: int,
) -> IndicatorBoundReport:
    """Check that the certified gap caps the indicator chain's exact window
    coefficient at epsilon, recording the margin."""
    cert = gap_for_epsilon(a, epsilon, bound)
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


def verify_absorbing_split(
    law: TupleLaw, epsilon: float, max_length: int = 6, atol: float = 1e-12
) -> AbsorbingSplitReport:
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
    if length > max_length:
        raise WindowTooWideError(
            f"window of {length} coordinates exceeds the enumeration cap {max_length}"
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
            if h[-1] == 0 and cond_zero < 1.0 - atol:
                return fail(f"state 0 not absorbing after history {h}")
            if cond_zero < 1.0 - epsilon - atol:
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


def fit_decay_rate(
    values: Sequence[tuple[int, float]], floor: float = 1e-13
) -> DecayFit:
    """Least-squares slope of log(coefficient) against the gap.

    Points at or below the numerical floor are discarded; at least three
    usable points are required.  The returned rate is exp(slope).
    """
    usable = [(n, c) for n, c in values if c > floor]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 points above {floor:.0e}, got {len(usable)}"
        )
    x = np.array([n for n, _ in usable], dtype=np.float64)
    y = np.log([c for _, c in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return DecayFit(rate=float(np.exp(slope)), r_squared=r2)
