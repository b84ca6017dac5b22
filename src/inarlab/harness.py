"""Exact and Monte Carlo verification campaigns.

Every structural claim about the constructions becomes a named check with
an explicit statistic, threshold, and provenance: exact checks compare
propagated laws at tight tolerances, Monte Carlo checks use chi-square
machinery with pooled bins and Bonferroni correction.  Negative controls
(documented corruptions) demonstrate that the campaign has power.

The pass rule is uniform: a check passes iff statistic <= threshold, so
every report is auditable from its own fields.  Chi-square checks record
the worst criticality ratio (statistic / critical value at the corrected
significance), which makes 1.0 the universal threshold.
"""

from __future__ import annotations

import math
import numbers
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import product
from statistics import NormalDist
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .chains import (
    InarParams,
    SuperpositionConfig,
    _direct_steps,
    _require_memory,
    _survivors,
    inar_kernel,
    indicator_chain_spec,
    marginal_at,
    poisson_death_chain,
    simulate_inar_superposition,
    window_joint_pmf,
)
from .dependence import TripletPmf, markov_triplet_residual
from .errors import InvalidConfigError, InvalidParameterError
from .mixing import verify_absorbing_split, verify_indicator_bound
from .pmf import (
    DEFAULT_TAIL_BUDGET,
    SeedSpec,
    _integer,
    _lost_mass,
    _padded,
    _poisson_terms,
    binomial_pmf,
    poisson_pmf,
    total_variation,
)
from .serialize import dumps

DEFAULT_A_GRID = (0.3, 0.5, 0.7)
DEFAULT_LAMBDA_GRID = (0.5, 1.0, 2.0)
ERROR_STATISTIC = 9.9e99  # sentinel for checks that raised; always a failure
MIN_EXPECTED = 5.0  # chi-square cells are pooled until they expect this many
EXACT_STEPS = 20  # marginals 1..EXACT_STEPS compared in the exact stationarity check
MIN_STRATUM = 200  # smallest conditioning stratum the thinning check tests
MARKOV_CAP = 12  # state cap of the exact Markov-triplet constructions
INNOVATION_BUDGET = 1e-10  # tail budget of the innovation laws in the triplets
EXACT_THRESHOLD = 1e-10  # largest statistic an exact check passes with
DEFAULT_SIGNIFICANCE = 0.01  # level of every Monte Carlo test
_NEWTON_STEPS = 100  # bound on the chi-square quantile's Newton iterations
DEFAULT_ROOT_SEED = 20170825

__all__ = [
    "McConfig",
    "CheckReport",
    "check_stationary_exact",
    "check_stationary_marginal",
    "check_innovation_independence",
    "check_thinning_conditional",
    "check_construction_equivalence",
    "check_markov_property",
    "run_all",
    "reports_to_json",
]


def _is_real(value) -> bool:
    """A real number that is not a boolean (JSON true/false are ints to Python)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class McConfig:
    """Campaign configuration; n_paths has a hard floor so distributional
    checks keep nontrivial power, and every grid point must be a valid
    InarParams."""

    n_paths: int = 100_000
    path_length: int = 32
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(DEFAULT_ROOT_SEED))
    significance: float = DEFAULT_SIGNIFICANCE
    truncation_budget: float = DEFAULT_TAIL_BUDGET
    a_grid: tuple[float, ...] = DEFAULT_A_GRID
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    negative_controls: bool = False

    def __post_init__(self):
        for name, least in (("n_paths", 10_000), ("path_length", 2)):
            value = _integer(getattr(self, name), name, least, InvalidConfigError)
            object.__setattr__(self, name, value)
        if not isinstance(self.negative_controls, bool):
            raise InvalidConfigError("negative_controls must be true or false")
        for name in ("significance", "truncation_budget"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 < value < 1.0):
                raise InvalidConfigError(f"{name} must be a number in (0, 1), got {value!r}")
        for name in ("a_grid", "lambda_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (tuple, list)) or not all(map(_is_real, grid)):
                raise InvalidConfigError(f"{name} must be a list of numbers")
            object.__setattr__(self, name, tuple(grid))
        if not self.a_grid or not self.lambda_grid:
            raise InvalidConfigError("a_grid and lambda_grid must be nonempty")
        try:
            for a, lam in product(self.a_grid, self.lambda_grid):
                InarParams(a=a, lam=lam)
        except (InvalidParameterError, OverflowError) as exc:  # ints past float range
            raise InvalidConfigError(f"invalid a_grid x lambda_grid point: {exc}") from exc

    def as_dict(self) -> dict:
        """Fields with the seed flattened to root_seed and stream_index."""
        out = asdict(self)
        out.update(out.pop("seed"))
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "McConfig":
        """Inverse of :meth:`as_dict`; absent keys take their defaults and any
        key ``as_dict`` does not write is refused."""
        data = dict(data)
        allowed = {f.name for f in fields(cls)} - {"seed"} | {"root_seed", "stream_index"}
        unknown = set(data) - allowed
        if unknown:
            raise InvalidConfigError(f"unknown keys {sorted(unknown)}")
        seed = SeedSpec(data.pop("root_seed", DEFAULT_ROOT_SEED), data.pop("stream_index", 0))
        return cls(seed=seed, **data)


@dataclass(frozen=True)
class CheckReport:
    """Self-auditing record: passed is derived as (statistic <= threshold)."""

    check: str
    construction: str
    params: dict
    statistic: float
    threshold: float
    provenance: str
    budget: float = 0.0
    seed: int | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


# ---------------------------------------------------------------------------
# chi-square machinery


def _chi2_tail(x: float, dof: int, upper: bool) -> tuple[float, float]:
    """The chi-square upper tail Q(dof/2, x/2) (or, not ``upper``, the lower
    tail P) at x > 0, and the density at x.

    With y = x/2, both tails are sums of Poisson terms p(k) = exp(-y) y**k /
    Gamma(k + 1) over the k of dof's parity (integers or half-integers): Q
    sums 0 <= k < dof/2, plus erfc(sqrt(y)) for odd dof, and P sums the
    k >= dof/2.  The density is p(dof/2 - 1) / 2.
    """
    y = 0.5 * x
    half = 0.5 * dof
    if dof == 1:  # no terms: Q = erfc(sqrt(y)), P = erf(sqrt(y)), and p(-1/2)
        root = math.sqrt(y)  # is exp(-y) / sqrt(pi y)
        density = 0.5 * math.exp(-y) / (math.sqrt(math.pi) * root)
        return (math.erfc(root) if upper else math.erf(root)), density
    if upper:
        # even dof start at p(0) = exp(-y), odd dof at k = 1/2
        terms = _poisson_terms(np.arange(1.0 - 0.5 * (dof % 2), half - 0.25), y)
        first = math.erfc(math.sqrt(y)) if dof % 2 else math.exp(-y)
        terms = terms.tolist()
        return math.fsum([first, *terms]), 0.5 * (terms[-1] if dof > 2 else first)
    terms = _poisson_terms(np.arange(half, max(half, y) + 10.0 * math.sqrt(y) + 40.0), y).tolist()
    return math.fsum(terms), 0.5 * terms[0] * half / y


def _chi2_critical(alpha: float, dof: int) -> float:
    """Upper-alpha chi-square quantile: the x with Q(dof/2, x/2) = alpha.

    Newton's method on log Q from the Wilson-Hilferty approximation.  Past
    alpha = 1/2 it solves log P = log(1 - alpha) instead, since 1 - alpha is
    exact there and Q is too flat near 1 to pin x to full precision.  Below
    a Wilson-Hilferty start of zero, it starts from P's leading term.
    """
    upper = alpha <= 0.5
    target = alpha if upper else 1.0 - alpha
    half = 0.5 * dof
    h = 2.0 / (9.0 * dof)
    base = 1.0 - h - NormalDist().inv_cdf(alpha) * math.sqrt(h)
    if base > 0.0:
        x = dof * base**3
    else:  # P(dof/2, y) ~ y**(dof/2) / Gamma(dof/2 + 1) for small y
        x = 2.0 * math.exp((math.log(target) + math.lgamma(half + 1.0)) / half)
    for _ in range(_NEWTON_STEPS):
        tail, density = _chi2_tail(x, dof, upper)
        step = math.log(tail / target) * tail / density  # Q falls, P rises in x
        step = step if upper else -step
        if x + step <= 0.0:  # an overshoot past zero: stay on the same side of the root
            step = -0.875 * x
        x += step
        if abs(step) <= 1e-14 * x:
            break
    return x


def _pooled_gof_ratio(
    counts: np.ndarray, probs: np.ndarray, alpha: float
) -> float | None:
    """Goodness-of-fit criticality ratio with bins pooled to expected >= 5.

    ``probs`` must cover the same bins as ``counts`` and sum to <= 1; the
    residual probability is appended as an overflow bin.  Returns None when
    pooling leaves fewer than two groups (no testable structure).
    """
    n = int(counts.sum())
    obs = np.append(counts, 0.0)
    exp = np.append(probs, _lost_mass(probs)) * n
    groups_o: list[float] = []
    groups_e: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            groups_o.append(acc_o)
            groups_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if groups_e:
            groups_o[-1] += acc_o
            groups_e[-1] += acc_e
        else:
            return None
    if len(groups_e) < 2:
        return None
    o_arr = np.array(groups_o)
    e_arr = np.array(groups_e)
    stat = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    return stat / _chi2_critical(alpha, len(groups_e) - 1)


def _pair_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts of the pairs (a[i], b[i]) over the observed ranges.

    Entry [i, j] counts the pairs (a.min() + i, b.min() + j), so the table
    grows with the spread of the counts, not with their size.
    """
    a_lo, b_lo = int(a.min()), int(b.min())
    rows, cols = int(a.max()) - a_lo + 1, int(b.max()) - b_lo + 1
    keys = np.subtract(a, a_lo, dtype=np.int64)  # a narrow type would wrap
    keys *= cols  # in place: one path-sized temporary
    keys += b
    keys -= b_lo
    return np.bincount(keys, minlength=rows * cols).reshape(rows, cols)


def _contingency_ratio(table: np.ndarray, alpha: float) -> float | None:
    """Independence-test criticality ratio after pooling sparse margins."""
    table = table.astype(np.float64)
    while True:
        table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        if table.shape[0] < 2 or table.shape[1] < 2:
            return None
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        if expected.min() >= MIN_EXPECTED:
            break
        if table.shape[0] >= table.shape[1] and table.shape[0] > 2:
            i = int(table.sum(axis=1).argmin())
            j = table.sum(axis=1).argsort()[1] if i == 0 else i - 1
            table[j] += table[i]
            table = np.delete(table, i, axis=0)
        elif table.shape[1] > 2:
            i = int(table.sum(axis=0).argmin())
            j = table.sum(axis=0).argsort()[1] if i == 0 else i - 1
            table[:, j] += table[:, i]
            table = np.delete(table, i, axis=1)
        else:
            return None
    # Pearson's statistic as chi2_contingency(correction=False) computes it
    stat = float(((table - expected) ** 2 / expected).sum())
    return stat / _chi2_critical(alpha, (table.shape[0] - 1) * (table.shape[1] - 1))


def _empirical_tv_threshold(probs: np.ndarray, n: int, alpha: float) -> float:
    """High-probability bound on TV(empirical, exact) for n multinomial draws.

    Mean part: 0.5 * sum_i sqrt(p_i (1 - p_i) / n) dominates E[TV]; deviation
    part: bounded differences give sqrt(log(1/alpha) / (2n)) at level alpha.
    """
    mean_part = 0.5 * float(np.sqrt(probs * (1.0 - probs) / n).sum())
    dev_part = math.sqrt(math.log(1.0 / alpha) / (2.0 * n))
    return mean_part + dev_part


# ---------------------------------------------------------------------------
# individual checks


def check_stationary_exact(
    params: InarParams, truncation_budget: float = DEFAULT_TAIL_BUDGET
) -> CheckReport:
    """The marginal law at every time index should be the stationary Poisson,
    exactly: the worst total-variation distance from the stationary law to
    the ``marginal_at`` laws at indices 1..``EXACT_STEPS`` is compared
    against ``EXACT_THRESHOLD``, and the last marginal's tail mass is the
    budget."""
    spec = inar_kernel(params, truncation_budget)
    laws = [marginal_at(spec, j) for j in range(1, EXACT_STEPS + 1)]
    return CheckReport(
        "stationary-marginal-exact",
        "inar-kernel",
        {"a": params.a, "lambda": params.lam, "steps": EXACT_STEPS},
        max(total_variation(law, spec.initial) for law in laws),
        EXACT_THRESHOLD,
        "exact",
        budget=laws[-1].tail_mass,
    )


def _require_columns(*columns: np.ndarray) -> None:
    """Refuse count columns unless there is at least one, each is a nonempty
    1-D signed-integer array (of any width, as the path holders keep them)
    with no negative count, and all share one length."""
    for column in columns:
        if not (isinstance(column, np.ndarray) and column.ndim == 1
                and column.dtype.kind == "i" and column.size):
            raise InvalidParameterError("count columns must be nonempty 1-D signed-integer arrays")
        if column.min() < 0:
            raise InvalidParameterError("count columns must hold no negative count")
    if len({column.size for column in columns}) != 1:
        raise InvalidParameterError("need one or more count columns, all of one length")


def check_stationary_marginal(
    columns: Mapping[int, np.ndarray], params: InarParams, construction: str = "unknown",
    seed_index: int | None = None, significance: float = DEFAULT_SIGNIFICANCE,
    target_mean: float | None = None,
) -> CheckReport:
    """The empirical law of the counts at each time index should be the
    stationary Poisson: one pooled chi-square test per entry of ``columns``,
    which maps a time index to its counts, under a shared Bonferroni budget.
    ``target_mean`` overrides the comparison law (used by the wrong-mean
    negative control)."""
    _require_columns(*columns.values())
    mean = params.stationary_mean if target_mean is None else target_mean
    target = poisson_pmf(mean, 1e-14)
    indices = sorted(columns)
    alpha = significance / len(indices)
    worst_ratio = 0.0
    for k in indices:
        counts = np.bincount(columns[k])
        ratio = _pooled_gof_ratio(counts, _padded(target.probs, counts.size), alpha)
        if ratio is not None:
            worst_ratio = max(worst_ratio, ratio)
    return CheckReport(
        "stationary-marginal" + ("" if target_mean is None else "-control"),
        construction,
        {"a": params.a, "lambda": params.lam, "target_mean": mean, "indices": indices},
        worst_ratio,
        1.0,
        "monte-carlo",
        seed=seed_index,
        note="" if target_mean is None else "documented wrong-mean target; expected to fail",
    )


def check_innovation_independence(
    x_prev: np.ndarray, x: np.ndarray, v_prev: np.ndarray, v: np.ndarray, index: int,
    seed_index: int | None = None, significance: float = DEFAULT_SIGNIFICANCE,
) -> CheckReport:
    """The innovation ``v`` at time ``index`` must be independent of the
    previous count ``x_prev``, the concurrent survivors ``x - v``, and the
    previous innovation ``v_prev``.

    Samples are taken at a single index so rows are independent across
    paths; the three contingency tests share a Bonferroni budget.
    """
    _require_columns(x_prev, x, v_prev, v)
    partners = {"prev-count": x_prev, "survivors": _survivors(x, v), "prev-innovation": v_prev}
    alpha = significance / len(partners)
    worst = 0.0
    for other in partners.values():
        ratio = _contingency_ratio(_pair_counts(other, v), alpha)
        if ratio is not None:
            worst = max(worst, ratio)
    return CheckReport(
        "innovation-independence",
        "decomposition",
        {"index": index, "partners": sorted(partners)},
        worst,
        1.0,
        "monte-carlo",
        seed=seed_index,
    )


def check_thinning_conditional(
    x_prev: np.ndarray, x: np.ndarray, v: np.ndarray, params: InarParams, index: int,
    seed_index: int | None = None, significance: float = DEFAULT_SIGNIFICANCE,
) -> CheckReport:
    """Given the previous count ``x_prev``, the survivors ``x - v`` at time
    ``index`` must be Binomial(x_prev, a).

    Conditioning strata with fewer than ``MIN_STRATUM`` observations are
    skipped (noted in the report) to avoid vacuous low-power passes.
    """
    _require_columns(x_prev, x, v)
    surv = _survivors(x, v)
    x_lo, s_lo = int(x_prev.min()), int(surv.min())
    table = _pair_counts(x_prev, surv)
    sizes = table.sum(axis=1)  # observations per previous count
    strata = (x_lo + np.flatnonzero(sizes >= MIN_STRATUM)).tolist()
    skipped = int(np.count_nonzero(sizes)) - len(strata)
    worst = 0.0
    tested = 0
    alpha = significance / max(1, len(strata))
    for stratum in strata:
        row = np.trim_zeros(table[stratum - x_lo], "b")
        if s_lo + row.size > stratum + 1:  # survivor counts above the stratum are impossible
            worst = max(worst, ERROR_STATISTIC)
            continue
        counts = np.zeros(stratum + 1, dtype=row.dtype)  # survivor counts 0..stratum
        counts[s_lo:s_lo + row.size] = row
        ratio = _pooled_gof_ratio(counts, binomial_pmf(stratum, params.a).probs, alpha)
        if ratio is not None:
            worst = max(worst, ratio)
            tested += 1
    return CheckReport(
        "thinning-conditional",
        "decomposition",
        {"a": params.a, "index": index, "strata_tested": tested, "strata_skipped": skipped},
        worst,
        1.0,
        "monte-carlo",
        seed=seed_index,
        note=f"{skipped} strata below {MIN_STRATUM} observations skipped",
    )


def check_construction_equivalence(
    params: InarParams,
    n_paths: int,
    seed: SeedSpec,
    significance: float = DEFAULT_SIGNIFICANCE,
    truncation_budget: float = DEFAULT_TAIL_BUDGET,
    perturb_a: float = 0.0,
) -> CheckReport:
    """The superposition construction must reproduce the exact window law.

    Compares the empirical joint of the first two indices against the exact
    law from kernel products, with a rigorous multinomial-fluctuation
    threshold.  ``perturb_a`` shifts the simulated thinning parameter (the
    documented negative control).
    """
    spec = inar_kernel(params, truncation_budget)
    law = window_joint_pmf(spec, (0, 1), cap=spec.state_cap)

    sim_params = (
        params
        if perturb_a == 0.0
        else InarParams(a=params.a + perturb_a, lam=params.lam)
    )
    config = SuperpositionConfig.for_budget(sim_params)
    ensemble = simulate_inar_superposition(sim_params, config, 2, n_paths, seed)
    obs = ensemble.paths

    # final slot: rows with a coordinate outside the truncated law
    slot = np.full(n_paths, law.mass.size)
    inside = np.all(obs < law.mass.shape[0], axis=1)
    slot[inside] = np.ravel_multi_index(obs[inside].T, law.mass.shape)
    counts = np.bincount(slot, minlength=law.mass.size + 1)

    emp = counts / n_paths
    exact = np.append(law.mass.ravel(), law.truncation_error)
    tv = 0.5 * float(np.abs(emp - exact).sum())
    threshold = (
        _empirical_tv_threshold(exact, n_paths, significance) + law.truncation_error
    )
    return CheckReport(
        "construction-equivalence" + ("-control" if perturb_a else ""),
        "superposition",
        {
            "a": params.a,
            "lambda": params.lam,
            "window": [0, 1],
            "n_paths": n_paths,
            "perturb_a": perturb_a,
            "depth": config.depth,
        },
        tv,
        threshold,
        "monte-carlo",
        budget=law.truncation_error + config.neglected_mean(sim_params),
        seed=seed.stream_index,
    )


# ---------------------------------------------------------------------------
# exact conditional-independence (Markov triplet) constructions


def _decomposition_sides(params: InarParams, tail_budget: float) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the decomposition identity on the states 0..cap,
    ``sum_u D(x0, u) I(x1 - u)`` and ``pi(x0) K(x0, x1)``: D is the (0, 1)
    window law of the Poisson-started death chain (a count and its
    survivors), I the kernel's own innovation table, and pi K the count
    chain's (0, 1) window law.  They multiply the same factors, so they
    differ by rounding alone unless the survivors are not the thinned count."""
    spec = inar_kernel(params, tail_budget)
    deaths = poisson_death_chain(params.stationary_mean, params.a, tail_budget)
    cap = min(MARKOV_CAP, spec.state_cap)
    innovation = _padded(spec.innovation.probs, cap + 1)
    lag = np.arange(cap + 1) - np.arange(cap + 1)[:, None]  # x1 - u
    shifted = np.where(lag >= 0, innovation[lag], 0.0)
    survivors = window_joint_pmf(deaths, (0, 1), cap).mass
    mixed = (survivors[:, :, None] * shifted).sum(axis=1)
    return mixed, window_joint_pmf(spec, (0, 1), cap).mass


def _split_triplet(lam1: float, lam2: float, a: float) -> TripletPmf:
    """Joint of ((Y1, Y2), Y1+Y2, Z1+Z2) for independent Poisson components
    thinned at the same rate: the total must screen off the split.  Each
    (Y, Z) is the (0, 1) window law of a Poisson-started death chain."""
    specs = [poisson_death_chain(lam, a, INNOVATION_BUDGET) for lam in (lam1, lam2)]
    m1, m2 = (window_joint_pmf(spec, (0, 1), spec.state_cap).mass for spec in specs)
    n1, n2 = len(m1), len(m2)
    y1, y2, z1, z2 = np.ix_(*map(np.arange, (n1, n2, n1, n2)))
    mass = np.zeros((n1 * n2, n1 + n2 - 1, n1 + n2 - 1))
    np.add.at(mass, (y1 * n2 + y2, y1 + y2, z1 + z2), m1[y1, z1] * m2[y2, z2])
    mass /= mass.sum()
    return TripletPmf(mass)


def nonmarkov_control_triplet() -> TripletPmf:
    """Two-step-memory counterexample: the outer coordinates are forced equal,
    so the middle coordinate cannot screen them off."""
    mass = np.zeros((2, 2, 2))
    for b in (0, 1):
        for a in (0, 1):
            mass[a, b, a] = 0.25
    return TripletPmf(mass)


def check_markov_property(
    params: InarParams, truncation_budget: float = DEFAULT_TAIL_BUDGET
) -> CheckReport:
    """The count must be its thinned survivors plus an independent innovation,
    exactly, and a Poisson total must screen off its split: the largest gap
    between the two sides of the decomposition identity and the Poisson-split
    triplet's conditional-independence residual are both at or below
    ``EXACT_THRESHOLD``."""
    mixed, window = _decomposition_sides(params, truncation_budget)
    residuals = {
        "decomposition-identity": float(np.abs(mixed - window).max()),
        "poisson-split": markov_triplet_residual(
            _split_triplet(params.lam, params.lam / 2.0, params.a)
        ),
    }
    return CheckReport(
        "markov-triplets",
        "exact-kernel-products",
        {"a": params.a, "lambda": params.lam, "cap": MARKOV_CAP,
         "residuals": residuals},
        max(residuals.values()),
        EXACT_THRESHOLD,
        "exact",
    )


# ---------------------------------------------------------------------------
# campaign driver


def _corrupted_innovation_check(
    params: InarParams, x_prev: np.ndarray, v: np.ndarray, index: int,
    seed_index: int | None, significance: float,
) -> CheckReport:
    """Negative control on the innovation ``v`` at time ``index``: leak the
    previous count into it, in int64 so that the bump cannot wrap."""
    _require_columns(x_prev, v)
    bumped = np.add(v, x_prev > params.stationary_mean, dtype=np.int64)
    ratio = _contingency_ratio(_pair_counts(x_prev, bumped), significance)
    return CheckReport(
        "innovation-independence-control",
        "decomposition-corrupted",
        {"a": params.a, "lambda": params.lam, "index": index},
        ratio if ratio is not None else 0.0,
        1.0,
        "monte-carlo",
        seed=seed_index,
        note="documented corruption; this check is expected to fail",
    )


def _mc_block(
    config: McConfig, params: InarParams, seed: SeedSpec
) -> list[CheckReport]:
    """Monte Carlo checks on one direct-construction run of
    ``config.path_length`` steps, streamed: it keeps only the columns the
    checks read, the counts at three time indices and both components at
    the last two steps, and applies the survivor rule ``_survivors`` at
    every step, as a ``PathEnsemble`` given its innovations does."""
    k = config.path_length - 1
    wanted = {0, config.path_length // 2, k}
    columns: dict[int, np.ndarray] = {}
    last = deque(maxlen=2)
    steps = _direct_steps(params, config.n_paths, seed)
    for j, (x, v) in zip(range(config.path_length), steps):
        _survivors(x, v, last[-1][0] if last else None)
        if j in wanted:
            columns[j] = x
        last.append((x, v))
    (x_prev, v_prev), (x, v) = last
    index, significance = seed.stream_index, config.significance
    out = [
        check_stationary_marginal(columns, params, "direct", index, significance),
        check_innovation_independence(x_prev, x, v_prev, v, k, index, significance),
        check_thinning_conditional(x_prev, x, v, params, k, index, significance),
    ]
    if config.negative_controls:
        out += [
            check_stationary_marginal(columns, params, "direct", index, significance, params.lam),
            _corrupted_innovation_check(params, x_prev, v, k, index, significance),
        ]
    return out


def _lemma_checks() -> list[CheckReport]:
    """Gap certificate on the indicator chain and the odd/even split cap."""
    out = []
    for a, eps, width in ((0.3, 0.5, 6), (0.2, 0.3, 6)):
        rep = verify_indicator_bound(0.5, a, eps, width)
        params = asdict(rep)
        params["pass"] = params.pop("passed")
        out.append(CheckReport(
            "indicator-gap-bound", "indicator", params, rep.value, eps, "exact"
        ))
    for eps in (0.01, 0.05, 1.0 / 9.0):
        law = window_joint_pmf(indicator_chain_spec(1.0, eps), list(range(6)), cap=1)
        rep = verify_absorbing_split(law, eps)
        params = {"epsilon": eps, "length": 6, "p0": 1.0}
        out.append(CheckReport(
            "absorbing-split-bound", "indicator", params, rep.value, rep.bound, "exact"
        ))
    return out


def _nonmarkov_control() -> CheckReport:
    return CheckReport(
        "markov-triplets-control",
        "two-step-memory",
        {},
        markov_triplet_residual(nonmarkov_control_triplet()),
        EXACT_THRESHOLD,
        "exact",
        note="documented non-Markov construction; expected to fail",
    )


def _origin(exc: BaseException) -> str:
    """``module:function:line`` of the last package frame the exception passed."""
    module, function, line = [
        (frame.f_globals["__name__"], frame.f_code.co_name, line)
        for frame, line in traceback.walk_tb(exc.__traceback__)
        if frame.f_globals.get("__name__", "").startswith("inarlab.")
    ][-1]
    return f"{module}:{function}:{line}"


_JOB_SECONDS: ContextVar[dict[str, float] | None] = ContextVar("_job_seconds", default=None)


@contextmanager
def _job_seconds() -> Iterator[dict[str, float]]:
    """Collect the wall seconds of the campaign jobs ``run_all`` runs in this block.

    The yielded dict maps each job name to its seconds, summed over jobs
    that share a name (a grid that repeats a value).  Outside such a block
    ``run_all`` records nothing.  The timings never reach the reports.
    """
    seconds: dict[str, float] = {}
    token = _JOB_SECONDS.set(seconds)
    try:
        yield seconds
    finally:
        _JOB_SECONDS.reset(token)


def run_all(config: McConfig, threads: int = 1) -> list[CheckReport]:
    """Execute the full campaign over the parameter grid, deterministically.

    Check jobs are independent; with ``threads > 1`` they run concurrently
    but the report list is always assembled in canonical order, so output
    is identical regardless of parallelism.  Exceptions inside a check are
    captured as failing reports rather than aborting the campaign; the note
    names the exception and ends with the last package frame it passed,
    as ``module:function:line``.  A path count whose simulations cannot fit
    in physical memory is refused before any check runs.
    """
    # the direct Monte Carlo block keeps at most six int64 columns of n_paths
    # entries (the counts at three indices, both components at the last two
    # steps); the equivalence check's two path matrices of length 2 are four
    _require_memory(config.path_length, config.n_paths, columns=6)
    jobs: list[tuple[str, Callable[[], CheckReport | list[CheckReport]]]] = []
    budget = config.truncation_budget
    for gi, (a, lam) in enumerate(product(config.a_grid, config.lambda_grid)):
        params = InarParams(a=a, lam=lam)
        base = config.seed.stream_index + 100 * gi
        sim_seed, eq_seed, control_seed = map(config.seed.stream, range(base, base + 3))
        equivalence = partial(
            check_construction_equivalence, params, config.n_paths,
            significance=config.significance, truncation_budget=budget,
        )
        at = f"[{a},{lam}]"
        jobs += [
            ("stationary-exact" + at, partial(check_stationary_exact, params, budget)),
            ("markov-triplets" + at,
             partial(check_markov_property, params, truncation_budget=budget)),
            ("direct-mc" + at, partial(_mc_block, config, params, sim_seed)),
            ("equivalence" + at, partial(equivalence, eq_seed)),
        ]
        if config.negative_controls:
            control = partial(equivalence, control_seed, perturb_a=0.1)
            jobs.append(("equivalence-control" + at, control))
    jobs.append(("lemma-checks", _lemma_checks))
    if config.negative_controls:
        jobs.append(("nonmarkov-control", _nonmarkov_control))

    def run_job(item) -> tuple[list[CheckReport], float]:
        name, fn = item
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # captured, never aborts the campaign
            note = f"check raised: {type(exc).__name__}: {exc} at {_origin(exc)}"
            result = CheckReport(
                "errored", name, {}, ERROR_STATISTIC, 0.0, "exact", note=note
            )
        elapsed = time.perf_counter() - start
        return (result if isinstance(result, list) else [result]), elapsed

    if threads <= 1:
        blocks = [run_job(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_job, jobs))
    seconds = _JOB_SECONDS.get()  # read by this thread: pool threads run outside its context
    if seconds is not None:
        for (name, _), (_, elapsed) in zip(jobs, blocks):
            seconds[name] = seconds.get(name, 0.0) + elapsed
    return [rep for block, _ in blocks for rep in block]


def reports_to_json(reports: Sequence[CheckReport], config: McConfig) -> str:
    """Deterministic report document; identical configs produce identical bytes."""
    return dumps(
        {
            "config": config.as_dict(),
            "checks": [r.to_dict() for r in reports],
            "all_pass": all(r.passed for r in reports),
        }
    )
