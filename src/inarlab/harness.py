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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from scipy import special

from .chains import (
    InarParams,
    InnovationDecomposition,
    PathEnsemble,
    SuperpositionConfig,
    _require_memory,
    inar_kernel,
    indicator_chain_spec,
    push,
    simulate_inar_direct,
    simulate_inar_superposition,
    transition_matrix,
    window_joint_pmf,
)
from .dependence import TripletPmf, markov_triplet_residual
from .errors import InvalidConfigError, InvalidParameterError
from .mixing import verify_absorbing_split, verify_indicator_bound
from .pmf import (
    DEFAULT_TAIL_BUDGET,
    SeedSpec,
    binomial_pmf,
    binomial_table,
    poisson_pmf,
    total_variation,
)
from .serialize import dumps

DEFAULT_A_GRID = (0.3, 0.5, 0.7)
DEFAULT_LAMBDA_GRID = (0.5, 1.0, 2.0)
ERROR_STATISTIC = 9.9e99  # sentinel for checks that raised; always a failure
MIN_EXPECTED = 5.0  # chi-square cells are pooled until they expect this many
EXACT_STEPS = 20  # kernel pushes in the exact stationarity check
MIN_STRATUM = 200  # smallest conditioning stratum the thinning check tests
MARKOV_CAP = 12  # state cap of the exact Markov-triplet constructions
INNOVATION_BUDGET = 1e-10  # tail budget of the innovation laws in the triplets
EXACT_THRESHOLD = 1e-10  # largest statistic an exact check passes with
DEFAULT_SIGNIFICANCE = 0.01  # level of every Monte Carlo test
DEFAULT_ROOT_SEED = 20170825

__all__ = [
    "McConfig",
    "CheckReport",
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
        for name in ("n_paths", "path_length"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.negative_controls, bool):
            raise InvalidConfigError("negative_controls must be true or false")
        if self.n_paths < 10_000:
            raise InvalidConfigError("n_paths must be at least 10^4")
        if self.path_length < 2:
            raise InvalidConfigError("path_length must be at least 2")
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


def _chi2_critical(alpha: float, dof: int) -> float:
    """Upper-alpha chi-square quantile, as scipy.stats.chi2.isf(alpha, dof)."""
    return float(special.chdtri(dof, alpha))


def _pooled_gof_ratio(
    counts: np.ndarray, probs: np.ndarray, alpha: float
) -> float | None:
    """Goodness-of-fit criticality ratio with bins pooled to expected >= 5.

    ``probs`` must cover the same bins as ``counts`` and sum to <= 1; the
    residual probability is appended as an overflow bin.  Returns None when
    pooling leaves fewer than two groups (no testable structure).
    """
    n = int(counts.sum())
    residual = max(0.0, 1.0 - math.fsum(probs.tolist()))
    obs = np.append(counts, 0.0)
    exp = np.append(probs, residual) * n
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
    keys = a - a_lo
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


def check_stationary_marginal(
    ensemble: PathEnsemble | None,
    params: InarParams,
    significance: float = DEFAULT_SIGNIFICANCE,
    truncation_budget: float = DEFAULT_TAIL_BUDGET,
    target_mean: float | None = None,
) -> CheckReport:
    """Marginal law at every time index should be the stationary Poisson.

    With ``ensemble=None`` the check is exact: the stationary law is pushed
    through the kernel repeatedly and the worst total-variation distance is
    compared against ``EXACT_THRESHOLD``.  Otherwise the empirical laws at
    three time indices face a pooled chi-square test.  ``target_mean``
    overrides the comparison law (used by the wrong-mean negative control).
    """
    mean = params.stationary_mean if target_mean is None else target_mean
    if ensemble is None:
        spec = inar_kernel(params, truncation_budget)
        trans = transition_matrix(spec, spec.state_cap)
        worst = 0.0
        law = spec.initial
        for _ in range(EXACT_STEPS):
            law = push(law, trans)
            worst = max(worst, total_variation(law, spec.initial))
        return CheckReport(
            "stationary-marginal-exact",
            "inar-kernel",
            {"a": params.a, "lambda": params.lam, "steps": EXACT_STEPS},
            worst,
            EXACT_THRESHOLD,
            "exact",
            budget=law.tail_mass,
        )
    target = poisson_pmf(mean, 1e-14)
    indices = sorted({0, ensemble.length // 2, ensemble.length - 1})
    alpha = significance / len(indices)
    worst_ratio = 0.0
    for k in indices:
        column = ensemble.paths[:, k]
        counts = np.bincount(column)
        probs = np.zeros(counts.size)
        m = min(counts.size, target.probs.size)
        probs[:m] = target.probs[:m]
        ratio = _pooled_gof_ratio(counts, probs, alpha)
        if ratio is not None:
            worst_ratio = max(worst_ratio, ratio)
    return CheckReport(
        "stationary-marginal" + ("" if target_mean is None else "-control"),
        str(ensemble.params.get("construction", "unknown")),
        {"a": params.a, "lambda": params.lam, "target_mean": mean, "indices": indices},
        worst_ratio,
        1.0,
        "monte-carlo",
        seed=ensemble.seed.stream_index,
        note="" if target_mean is None else "documented wrong-mean target; expected to fail",
    )


def check_innovation_independence(
    decomposition: InnovationDecomposition,
    seed_index: int | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> CheckReport:
    """The innovation at the last time index must be independent of the
    previous count, the concurrent survivor count, and the previous
    innovation.

    Samples are taken at a single index so rows are independent across
    paths; the three contingency tests share a Bonferroni budget.
    """
    k = decomposition.x.shape[1] - 1
    if k < 1:
        raise InvalidConfigError("need at least two time indices")
    v = decomposition.v[:, k]
    partners = {
        "prev-count": decomposition.x[:, k - 1],
        "survivors": decomposition.u[:, k],
        "prev-innovation": decomposition.v[:, k - 1],
    }
    alpha = significance / len(partners)
    worst = 0.0
    for name, other in partners.items():
        ratio = _contingency_ratio(_pair_counts(other, v), alpha)
        if ratio is not None:
            worst = max(worst, ratio)
    return CheckReport(
        "innovation-independence",
        "decomposition",
        {"index": k, "partners": sorted(partners)},
        worst,
        1.0,
        "monte-carlo",
        seed=seed_index,
    )


def check_thinning_conditional(
    decomposition: InnovationDecomposition,
    params: InarParams,
    seed_index: int | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> CheckReport:
    """Given the previous count x, survivors at the last time index must be
    Binomial(x, a).

    Conditioning strata with fewer than ``MIN_STRATUM`` observations are
    skipped (noted in the report) to avoid vacuous low-power passes.
    """
    k = decomposition.x.shape[1] - 1
    if k < 1:
        raise InvalidConfigError("need at least two time indices")
    prev, surv = decomposition.x[:, k - 1], decomposition.u[:, k]
    x_lo, s_lo = int(prev.min()), int(surv.min())
    table = _pair_counts(prev, surv)
    sizes = table.sum(axis=1)  # observations per previous count
    strata = (x_lo + np.flatnonzero(sizes >= MIN_STRATUM)).tolist()
    skipped = int(np.count_nonzero(sizes)) - len(strata)
    worst = 0.0
    tested = 0
    alpha = significance / max(1, len(strata))
    for x in strata:
        # survivor counts 0..max(x, largest observed), as bincount would size them
        row = np.trim_zeros(table[x - x_lo], "b")
        counts = np.zeros(max(x + 1, s_lo + row.size), dtype=row.dtype)
        counts[s_lo:s_lo + row.size] = row
        probs = binomial_pmf(x, params.a).probs
        if counts.size > probs.size:  # impossible survivor counts
            worst = max(worst, ERROR_STATISTIC)
            continue
        ratio = _pooled_gof_ratio(counts, probs[: counts.size], alpha)
        if ratio is not None:
            worst = max(worst, ratio)
            tested += 1
    return CheckReport(
        "thinning-conditional",
        "decomposition",
        {"a": params.a, "index": k, "strata_tested": tested, "strata_skipped": skipped},
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
    ensemble, _ = simulate_inar_superposition(sim_params, config, 2, n_paths, seed)
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


def _kernel_triplet(params: InarParams, tail_budget: float) -> TripletPmf:
    """Window law of (X0, X1, X2), renormalized; Markov by structure."""
    spec = inar_kernel(params, tail_budget)
    law = window_joint_pmf(spec, (0, 1, 2), min(MARKOV_CAP, spec.state_cap))
    return TripletPmf(law.mass / law.mass.sum())


def _decomposition_triplet(params: InarParams, tail_budget: float) -> TripletPmf:
    """Joint of ((X0, U1, V1), X1, U2): the survivor draw given the current
    count must screen off the whole decomposed past."""
    init = poisson_pmf(params.stationary_mean, tail_budget)
    innov = poisson_pmf(params.lam, INNOVATION_BUDGET)
    top = min(MARKOV_CAP, init.max_state)
    b_size = top + innov.max_state + 1
    table = binomial_table(b_size, params.a)
    grid = np.meshgrid(
        np.arange(top + 1), np.arange(top + 1), np.arange(innov.probs.size),
        indexing="ij",
    )
    x0, u1, v1 = (g[grid[1] <= grid[0]] for g in grid)  # survivors u1 <= x0
    p = init.probs[x0] * table[x0, u1] * innov.probs[v1]
    mass = np.zeros((p.size, b_size, b_size + 1))
    mass[np.arange(p.size), u1 + v1] = p[:, None] * table[u1 + v1]
    mass /= mass.sum()
    return TripletPmf(mass)


def _split_triplet(lam1: float, lam2: float, a: float) -> TripletPmf:
    """Joint of ((Y1, Y2), Y1+Y2, Z1+Z2) for independent Poisson components
    thinned at the same rate: the total must screen off the split."""
    p1 = poisson_pmf(lam1, INNOVATION_BUDGET)
    p2 = poisson_pmf(lam2, INNOVATION_BUDGET)
    table = binomial_table(max(p1.max_state, p2.max_state), a)
    atoms = tuple(product(range(p1.probs.size), range(p2.probs.size)))
    b_size = p1.max_state + p2.max_state + 1
    mass = np.zeros((len(atoms), b_size, b_size))
    for ai, (y1, y2) in enumerate(atoms):
        z_law = np.convolve(table[y1, : y1 + 1], table[y2, : y2 + 1])
        mass[ai, y1 + y2, : z_law.size] = p1.probs[y1] * p2.probs[y2] * z_law
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
    """All exact conditional-independence constructions must have residual
    at or below ``EXACT_THRESHOLD``."""
    residuals = {
        "kernel-window": markov_triplet_residual(
            _kernel_triplet(params, truncation_budget)
        ),
        "decomposition": markov_triplet_residual(
            _decomposition_triplet(params, truncation_budget)
        ),
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
    params: InarParams, dec: InnovationDecomposition, seed_index: int, significance: float
) -> CheckReport:
    """Negative control: leak the previous count into the innovation."""
    k = dec.x.shape[1] - 1
    bumped = dec.v[:, k] + (dec.x[:, k - 1] > params.stationary_mean)
    ratio = _contingency_ratio(_pair_counts(dec.x[:, k - 1], bumped), significance)
    return CheckReport(
        "innovation-independence-control",
        "decomposition-corrupted",
        {"a": params.a, "lambda": params.lam, "index": k},
        ratio if ratio is not None else 0.0,
        1.0,
        "monte-carlo",
        seed=seed_index,
        note="documented corruption; this check is expected to fail",
    )


def _mc_block(
    config: McConfig, params: InarParams, seed: SeedSpec
) -> list[CheckReport]:
    """Monte Carlo checks on one direct-construction ensemble."""
    ens, dec = simulate_inar_direct(params, config.path_length, config.n_paths, seed)
    out = [
        check_stationary_marginal(ens, params, config.significance),
        check_innovation_independence(dec, seed.stream_index, config.significance),
        check_thinning_conditional(dec, params, seed.stream_index, config.significance),
    ]
    if config.negative_controls:
        out += [
            check_stationary_marginal(
                ens, params, config.significance, target_mean=params.lam
            ),
            _corrupted_innovation_check(
                params, dec, seed.stream_index, config.significance
            ),
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
    # the largest simulation holds five int64 path matrices of path_length
    # (the equivalence check's are shorter)
    _require_memory(config.path_length, config.n_paths, 5)
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
            ("stationary-exact" + at,
             partial(check_stationary_marginal, None, params, truncation_budget=budget)),
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
