"""Markov chain constructions and exact finite-window laws.

Covers the count autoregression with binomial thinning and Poisson
innovations (built two ways: directly from its transition structure, and
as a superposition of independent pure-death chains), the pure-death
chains themselves, binary indicator-product chains, and seeded path
simulation.  A chain is data: an initial law, a survival rate and an
innovation law.  Every exact law (window joints, lag joints, marginals)
comes from one dense engine: the closed-form kernel table of
:func:`transition_matrix`, contracted with numpy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .dependence import DEFAULT_EXPLOSION_LIMIT, JointPmf, _require_finite_nonnegative
from .errors import (
    ExplosionLimitError,
    InvalidConfigError,
    InvalidParameterError,
    ResourceLimitError,
)
from .pmf import (
    DEFAULT_TAIL_BUDGET,
    Pmf,
    SeedSpec,
    _require_sampleable,
    _sample_with_rng,
    binomial_pmf,
    binomial_table,
    point_mass,
    poisson_pmf,
)

__all__ = [
    "InarParams",
    "MarkovChainSpec",
    "PathEnsemble",
    "InnovationDecomposition",
    "SuperpositionConfig",
    "TupleLaw",
    "inar_kernel",
    "iid_chain",
    "binomial_death_chain",
    "poisson_death_chain",
    "indicator_chain_spec",
    "indicator_chain",
    "simulate_chain",
    "simulate_inar_direct",
    "simulate_inar_superposition",
    "transition_matrix",
    "push",
    "window_joint_pmf",
    "marginal_at",
    "write_ensemble_csv",
]

DEFAULT_SUPERPOSITION_BUDGET = 1e-9  # neglected mean mass a default depth may leave
_BLOCK_CELLS = 1 << 16  # cells per row block when checking or writing ensembles
# The superposition costs about (depth + length) x (n_paths + C) work units of
# 55-62 ns each: a generation's fixed cost (11-15 us) is worth about C paths.  A
# run above the budget (some 6 s of drawing) is refused before it draws.
_GENERATION_OVERHEAD_PATHS = 200  # C
_GENERATION_BUDGET = 10**8
# Largest stationary mean the simulators accept.  numpy refuses Poisson means
# above about 9.2e18, and sums of counts near 2**63 would overflow int64.
_MAX_COUNT_MEAN = 2.0**62


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(length: int, n_paths: int, matrices: int) -> None:
    """Refuse a simulation with no steps or no paths, or one whose
    ``matrices`` int64 path-sized arrays (path matrices plus time-major
    buffers) would exceed physical memory."""
    if length < 1 or n_paths < 1:
        raise InvalidParameterError("length and n_paths must be positive")
    need = matrices * length * n_paths * np.dtype(np.int64).itemsize
    have = _physical_memory()
    if need > have:
        raise ResourceLimitError(
            f"{n_paths} paths of length {length} need about {need / 2**30:.3g} GiB "
            f"of int64 arrays, more than the {have / 2**30:.3g} GiB of physical memory"
        )


@dataclass(frozen=True)
class InarParams:
    """Thinning/survival parameter ``a`` and innovation mean ``lam``."""

    a: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise InvalidParameterError("a must lie in (0, 1)")
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise InvalidParameterError("lam must be positive and finite")

    @property
    def stationary_mean(self) -> float:
        return self.lam / (1.0 - self.a)


@dataclass(frozen=True)
class MarkovChainSpec:
    """Initial law plus one step: from state x, Binomial(x, a) survivors plus
    an independent ``innovation`` draw (death chains add ``point_mass(0)``)."""

    initial: Pmf
    a: float
    innovation: Pmf
    description: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise InvalidParameterError("a must lie in [0, 1]")

    @property
    def state_cap(self) -> int:
        return self.initial.max_state


@dataclass(frozen=True)
class PathEnsemble:
    """Matrix of simulated paths, one row per path, plus its provenance.

    Regenerating with the same seed and parameters reproduces the matrix
    exactly.
    """

    paths: np.ndarray
    seed: SeedSpec
    params: Mapping

    def __post_init__(self):
        paths = np.ascontiguousarray(self.paths, dtype=np.int64)
        if paths.ndim != 2:
            raise InvalidParameterError("paths must be a 2-D matrix")
        paths.setflags(write=False)
        object.__setattr__(self, "paths", paths)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def length(self) -> int:
        return self.paths.shape[1]


@dataclass(frozen=True)
class InnovationDecomposition:
    """Aligned paths of the count, survivor, and innovation components.

    Enforces ``x[k] == u[k] + v[k]`` everywhere and ``u[k] <= x[k-1]``
    wherever the previous index exists (survivors cannot exceed their
    source).
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x, u, v = (np.ascontiguousarray(m, dtype=np.int64) for m in (self.x, self.u, self.v))
        if not (x.shape == u.shape == v.shape) or x.ndim != 2:
            raise InvalidParameterError("x, u, v must share a 2-D shape")
        # checked a row block at a time, so no full-size temporary is built
        blocks = _row_blocks(*x.shape)
        if any(not np.array_equal(x[b], u[b] + v[b]) for b in blocks):
            raise InvalidParameterError("decomposition identity x = u + v violated")
        if any(np.any(u[b, 1:] > x[b, :-1]) for b in blocks):
            raise InvalidParameterError("survivors exceed their source count")
        for m in (x, u, v):
            m.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class SuperpositionConfig:
    """Truncation depth for the death-chain superposition.

    ``depth`` truncates the age sum; the neglected chains contribute mean
    mass ``lam * a**depth / (1 - a)``, which must stay at or below
    ``tail_budget``.  Chains started more than ``depth`` steps before the
    window are never drawn.
    """

    depth: int
    tail_budget: float = DEFAULT_SUPERPOSITION_BUDGET

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidConfigError("depth must be a positive integer")
        if not (0.0 < self.tail_budget < 1.0):
            raise InvalidConfigError("tail_budget must lie in (0, 1)")

    @property
    def effective_warmup(self) -> int:
        """Always ``depth``; ``benchmarks/layers.py`` reads it until ROADMAP item 5."""
        return self.depth

    def neglected_mean(self, params: InarParams) -> float:
        return params.lam * params.a**self.depth / (1.0 - params.a)

    def validate_for(self, params: InarParams) -> None:
        neglected = self.neglected_mean(params)
        if neglected > self.tail_budget:
            raise InvalidConfigError(
                f"depth {self.depth} leaves neglected mean mass {neglected:.3e} "
                f"above the budget {self.tail_budget:.3e}"
            )

    @classmethod
    def for_budget(
        cls, params: InarParams, tail_budget: float = DEFAULT_SUPERPOSITION_BUDGET
    ) -> "SuperpositionConfig":
        """Smallest depth meeting the neglected-mean budget.

        Found by doubling, then bisection, on ``neglected_mean`` itself: no
        estimate can underflow, and a depth of 10**18 (a near 1) takes about
        120 steps, also where ``a**depth`` underflows to 0 for a run of depths.
        """
        if not (0.0 < tail_budget < 1.0):
            raise InvalidConfigError("tail_budget must lie in (0, 1)")

        def fits(depth: int) -> bool:
            return cls(depth, tail_budget).neglected_mean(params) <= tail_budget

        lo, hi = 0, 1  # hi fits once doubled; lo is 0 or a depth that does not fit
        while not fits(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fits(mid) else (mid, hi)
        return cls(depth=hi, tail_budget=tail_budget)


def _require_survival(a: float) -> None:
    if not (0.0 < a < 1.0):
        raise InvalidParameterError("a must lie in (0, 1)")


def inar_kernel(
    params: InarParams, tail_budget: float = DEFAULT_TAIL_BUDGET
) -> MarkovChainSpec:
    """Stationary count-autoregression chain.

    One step from state x: thin the x survivors at rate a, then add an
    independent Poisson(lam) innovation.  The initial law is the stationary
    Poisson(lam / (1 - a)); the state cap is its truncation point.
    """
    innovation = poisson_pmf(params.lam, tail_budget)
    return MarkovChainSpec(
        initial=poisson_pmf(params.stationary_mean, tail_budget),
        a=params.a,
        innovation=innovation,
        description={"construction": "inar", "a": params.a, "lambda": params.lam},
    )


def iid_chain(lam: float, tail_budget: float = DEFAULT_TAIL_BUDGET) -> MarkovChainSpec:
    """No survivors (a = 0): an i.i.d. Poisson sequence (null model)."""
    law = poisson_pmf(lam, tail_budget)
    return MarkovChainSpec(
        initial=law, a=0.0, innovation=law, description={"construction": "iid", "lambda": lam}
    )


def binomial_death_chain(n: int, p: float, a: float) -> MarkovChainSpec:
    """Pure-death chain started from Binomial(n, p); trajectories never rise."""
    if n < 1 or int(n) != n:
        raise InvalidParameterError("n must be a positive integer")
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    initial = binomial_pmf(int(n), p)
    _require_survival(a)
    return MarkovChainSpec(
        initial=initial,
        a=a,
        innovation=point_mass(0),
        description={"construction": "death-binomial", "n": int(n), "p": p, "a": a},
    )


def poisson_death_chain(
    lam: float, a: float, tail_budget: float = DEFAULT_TAIL_BUDGET
) -> MarkovChainSpec:
    """Pure-death chain started from Poisson(lam)."""
    initial = poisson_pmf(lam, tail_budget)
    _require_survival(a)
    return MarkovChainSpec(
        initial=initial,
        a=a,
        innovation=point_mass(0),
        description={"construction": "death-poisson", "lambda": lam, "a": a},
    )


def indicator_chain_spec(p0: float, a: float) -> MarkovChainSpec:
    """Binary chain: start Bernoulli(p0), survive each step with probability a.

    This is the exact-law counterpart of :func:`indicator_chain`; the state 0
    is absorbing.
    """
    if not (0.0 <= p0 <= 1.0):
        raise InvalidParameterError("p0 must lie in [0, 1]")
    _require_survival(a)
    return MarkovChainSpec(
        initial=Pmf(np.array([1.0 - p0, p0])),
        a=a,
        innovation=point_mass(0),
        description={"construction": "indicator", "p0": p0, "a": a},
    )


def indicator_chain(
    p0: float, a: float, length: int, n_paths: int, seed: SeedSpec
) -> PathEnsemble:
    """Simulated indicator-product paths: z_k = z_0 * prod of Bernoulli(a) flags.

    Paths are {0,1}-valued and nonincreasing.
    """
    if not (0.0 <= p0 <= 1.0):
        raise InvalidParameterError("p0 must lie in [0, 1]")
    _require_survival(a)
    _require_memory(length, n_paths, 1)
    rng = seed.generator()
    paths = np.empty((n_paths, length), dtype=np.int64)
    paths[:, 0] = rng.random(n_paths) < p0
    for k in range(1, length):
        paths[:, k] = paths[:, k - 1] & (rng.random(n_paths) < a)
    return PathEnsemble(
        paths, seed, {"construction": "indicator", "p0": p0, "a": a}
    )


def simulate_chain(
    spec: MarkovChainSpec, length: int, n_paths: int, seed: SeedSpec
) -> PathEnsemble:
    """I.i.d. paths of a chain via tabulated inverse-CDF sampling.

    Deterministic given the seed: states are visited in ascending order at
    every step, so the stream consumption pattern is reproducible.  Only the
    kernel rows of visited states are built, once per call.  Refuses to
    sample an initial law or innovation whose tail mass exceeds
    ``DEFAULT_TAIL_BUDGET``.
    """
    _require_memory(length, n_paths, 1)
    rng = seed.generator()
    _require_sampleable(spec.initial)
    if length > 1:
        _require_sampleable(spec.innovation)
    paths = np.empty((n_paths, length), dtype=np.int64)
    paths[:, 0] = _sample_with_rng(spec.initial, rng, n_paths)
    cdfs: dict[int, np.ndarray] = {}
    for k in range(1, length):
        prev, cur = paths[:, k - 1], paths[:, k]
        counts = np.bincount(prev)
        # paths grouped by state, ascending, in path order within a state; a
        # key of the narrowest unsigned type lets the stable sort run as radix
        order = np.argsort(prev.astype(np.min_scalar_type(counts.size - 1)), kind="stable")
        # one call takes the same uniforms as one call per state laid end to end
        uniforms = rng.random(n_paths)
        lo = 0
        for s in np.flatnonzero(counts).tolist():
            hi = lo + int(counts[s])
            cdf = cdfs.get(s)
            if cdf is None:
                cdf = cdfs[s] = np.cumsum(_kernel_row(spec, s))
            draws = np.searchsorted(cdf, uniforms[lo:hi], side="right")
            cur[order[lo:hi]] = np.minimum(draws, cdf.size - 1)  # clamp at the row's support end
            lo = hi
    return PathEnsemble(
        paths, seed, dict(spec.description, length=length, n_paths=n_paths)
    )


def _require_countable(params: InarParams) -> None:
    if params.stationary_mean > _MAX_COUNT_MEAN:
        raise InvalidParameterError(
            f"stationary mean lam / (1 - a) = {params.stationary_mean:.3e} is too "
            f"large for int64 counts (at most {_MAX_COUNT_MEAN:.3e})"
        )


def simulate_inar_direct(
    params: InarParams, length: int, n_paths: int, seed: SeedSpec
) -> tuple[PathEnsemble, InnovationDecomposition]:
    """Simulate the chain from its transition structure.

    The pre-window state is drawn from the stationary law, then each step
    draws survivors Binomial(previous, a) and an independent Poisson(lam)
    innovation, so the decomposition identities hold by construction.
    """
    _require_countable(params)
    _require_memory(length, n_paths, 5)  # x, u, v plus time-major u and v
    rng = seed.generator()
    x_prev = rng.poisson(params.stationary_mean, n_paths)
    u = np.empty((length, n_paths), dtype=np.int64)
    v = np.empty_like(u)
    for k in range(length):
        u[k] = rng.binomial(x_prev, params.a)
        v[k] = rng.poisson(params.lam, n_paths)
        x_prev = u[k] + v[k]
    # one path per row; converted one at a time so peak memory stays flat
    u = np.ascontiguousarray(u.T)
    v = np.ascontiguousarray(v.T)
    x = u + v
    ensemble = PathEnsemble(
        x,
        seed,
        {
            "construction": "direct",
            "a": params.a,
            "lambda": params.lam,
            "length": length,
            "n_paths": n_paths,
        },
    )
    return ensemble, InnovationDecomposition(x, u, v)


def simulate_inar_superposition(
    params: InarParams,
    config: SuperpositionConfig,
    length: int,
    n_paths: int,
    seed: SeedSpec,
) -> tuple[PathEnsemble, InnovationDecomposition]:
    """Simulate the chain as a sum of independent pure-death chains.

    A fresh Poisson(lam)-started death chain begins at every time index;
    the observed count at k sums the current sizes of the last ``depth``
    generations.  The innovation is the newborn generation and the
    survivor part is everything older, so x = u + v exactly even under
    truncation.

    Composed thinning is thinning at the product rate, a∘(b∘Y) = (ab)∘Y in
    law, so a generation born at ``start < 0`` jumps to index 0 with one
    Binomial(y, a**-start) draw and then steps one index at a time.  Each
    step draws only on the paths where the generation is still alive.
    """
    _require_countable(params)
    config.validate_for(params)
    _require_memory(length, n_paths, 5)  # x, u, v plus time-major x and v
    depth = config.depth
    work = (depth + length) * (n_paths + _GENERATION_OVERHEAD_PATHS)
    if work > _GENERATION_BUDGET:
        raise ResourceLimitError(
            f"depth {depth} and length {length} over {n_paths} paths need {work:.3g} "
            f"work units, above the superposition budget {_GENERATION_BUDGET:.3g}"
        )
    rng = seed.generator()
    x = np.zeros((length, n_paths), dtype=np.int64)
    v = np.empty_like(x)
    for start in range(-depth, length):
        y = rng.poisson(params.lam, n_paths)
        if start < 0:
            y = rng.binomial(y, params.a ** -start)  # composed thinning to index 0
        else:
            v[start] = y
        k, stop = max(start, 0), min(start + depth, length - 1)
        nz = np.flatnonzero(y)
        y = y[nz]
        while nz.size:
            x[k, nz] += y
            if k == stop:
                break
            k += 1
            y = rng.binomial(y, params.a)
            alive = y > 0
            nz, y = nz[alive], y[alive]
    # one path per row; converted one at a time so peak memory stays flat
    x = np.ascontiguousarray(x.T)
    v = np.ascontiguousarray(v.T)
    u = x - v
    ensemble = PathEnsemble(
        x,
        seed,
        {
            "construction": "superposition",
            "a": params.a,
            "lambda": params.lam,
            "depth": depth,
            "length": length,
            "n_paths": n_paths,
        },
    )
    return ensemble, InnovationDecomposition(x, u, v)


def _kernel_row(spec: MarkovChainSpec, x: int) -> np.ndarray:
    """Row ``x`` of ``transition_matrix`` without its zero padding."""
    if spec.a == 0.0:
        return spec.innovation.probs
    return np.convolve(binomial_pmf(x, spec.a).probs, spec.innovation.probs)


def transition_matrix(spec: MarkovChainSpec, cap: int) -> np.ndarray:
    """Kernel rows for the states 0..cap, zero-padded to the widest row.

    Row ``x`` is Binomial(x, a), read from one ``binomial_table``, convolved
    with the innovation (with ``a = 0``, the innovation alone).  The matrix
    is at least ``cap + 1`` columns wide, so ``[:, :cap + 1]`` is the kernel
    truncated to {0..cap}.  Every exact law in this package is built from
    this table.  A cap may exceed the chain's ``state_cap`` to refine a
    truncation.
    """
    if cap < 0:
        raise InvalidParameterError("cap must be nonnegative")
    innovation = spec.innovation.probs
    if spec.a == 0.0:
        out = np.zeros((cap + 1, max(cap + 1, innovation.size)))
        out[:, : innovation.size] = innovation
        return out
    table = binomial_table(cap, spec.a)
    out = np.zeros((cap + 1, cap + innovation.size))
    for x in range(cap + 1):
        out[x, : x + innovation.size] = np.convolve(table[x, : x + 1], innovation)
    return out


def push(pmf: Pmf, trans: np.ndarray) -> Pmf:
    """One kernel step applied to a law, through a ``transition_matrix``.

    Support grows to the matrix width; input states above its last row
    escape into the tail, so the result's tail mass is an honest bound on
    everything unaccounted for.
    """
    top = min(pmf.max_state, trans.shape[0] - 1)
    out = pmf.probs[: top + 1] @ trans[: top + 1]
    return Pmf(out, max(0.0, 1.0 - math.fsum(out.tolist())))


@dataclass(frozen=True, eq=False)
class TupleLaw:
    """Exact joint law of a chain observed at a finite set of indices.

    ``mass`` is a dense tensor with one axis per observed index (in index
    order), each axis covering the states 0..cap; ``mass[x0, x1, ...]`` is
    the probability of that observation tuple.  ``truncation_error`` is
    the mass lost to state truncation and kernel tails, ``1 - sum(mass)``.
    """

    indices: tuple[int, ...]
    mass: np.ndarray
    truncation_error: float

    def __post_init__(self):
        # the one mass check that every split of this law relies on
        mass = np.asarray(self.mass, dtype=np.float64)
        _require_finite_nonnegative(mass)
        object.__setattr__(self, "mass", mass)

    @cached_property
    def atoms(self) -> Mapping[tuple[int, ...], float]:
        """Positive-probability tuples in lexicographic order (read-only)."""
        cells = np.nonzero(self.mass > 0.0)
        keys = zip(*(axis.tolist() for axis in cells))
        return MappingProxyType(dict(zip(keys, self.mass[cells].tolist())))

    def _sum_to(self, positions: Sequence[int]) -> np.ndarray:
        """Mass summed over every axis not listed, the rest in listed order.

        With every axis listed this is a read-only view, not a copy.
        """
        rest = tuple(p for p in range(self.mass.ndim) if p not in positions)
        kept = sorted(positions)
        mass = self.mass.sum(axis=rest) if rest else self.mass
        return mass.transpose([kept.index(p) for p in positions])

    def split(
        self, s_indices: Sequence[int], t_indices: Sequence[int]
    ) -> JointPmf:
        """Bivariate law of (tuple over S, tuple over T), renormalized.

        S and T must be disjoint nonempty subsets of the observed indices;
        the kept mass is renormalized to 1 so the result is a valid joint
        (the discarded mass is already reported as truncation_error).
        Rows and columns are the positive-mass tuples of S and T, in
        lexicographic order; they carry no labels.  A law whose cap keeps
        no mass at all is refused as a resource limit.
        """
        s_pos = [self.indices.index(i) for i in sorted(s_indices)]
        t_pos = [self.indices.index(i) for i in sorted(t_indices)]
        if not s_pos or not t_pos or set(s_pos) & set(t_pos):
            raise InvalidParameterError("S and T must be disjoint and nonempty")
        support = self.mass.shape[0]
        mass = self._sum_to(s_pos + t_pos).reshape(
            support ** len(s_pos), support ** len(t_pos)
        )
        # compress keeps the C order that the renormalizing sum reads in
        mass = mass.compress(mass.sum(axis=1) > 0.0, axis=0)
        mass = mass.compress(mass.sum(axis=0) > 0.0, axis=1)
        if not mass.size:
            raise ResourceLimitError(f"cap {support - 1} keeps none of the mass; raise the cap")
        mass /= mass.sum()
        return JointPmf._checked(mass)


def require_window_atoms(cap: int, count: int) -> None:
    """Refuse a negative cap, or a window law over ``count`` indices whose
    dense table at this cap would exceed ``DEFAULT_EXPLOSION_LIMIT`` cells."""
    if cap < 0:
        raise InvalidParameterError("cap must be nonnegative")
    atoms = (cap + 1) ** count
    if atoms > DEFAULT_EXPLOSION_LIMIT:
        raise ExplosionLimitError(
            f"window law could hold up to {atoms} atoms "
            f"(limit {DEFAULT_EXPLOSION_LIMIT}); shrink the window or the cap"
        )


def window_joint_pmf(
    spec: MarkovChainSpec, indices: Sequence[int], cap: int
) -> TupleLaw:
    """Exact joint law of the chain at the given strictly increasing indices.

    Dense contraction of the kernel truncated to {0..cap} (``spec.state_cap``
    is the natural choice; larger caps refine the truncation):
    ``mass = init @ P^i0``, then one new axis
    ``mass[..., None] * P^gap`` per later index, with matrix powers over
    the unobserved gaps.  Impossible tuples (e.g. increases under a death
    kernel) hold zero mass.  The lost mass is reported as
    ``truncation_error``, not renormalized away.
    """
    idx = [int(i) for i in indices]
    if not idx or any(b <= a for a, b in zip(idx, idx[1:])) or idx[0] < 0:
        raise InvalidParameterError(
            "indices must be nonempty, nonnegative, strictly increasing"
        )
    require_window_atoms(cap, len(idx))
    return next(_window_laws(spec, [idx], cap))


def _window_laws(
    spec: MarkovChainSpec, index_sets: Iterable[Sequence[int]], cap: int
) -> Iterator[TupleLaw]:
    """The contraction of :func:`window_joint_pmf` at each index set in turn,
    all from one kernel table built on first use.  The caller validates the
    index sets and the cap."""
    support = cap + 1
    trans = transition_matrix(spec, cap)[:, :support]
    init = np.zeros(support)
    m = min(spec.initial.probs.size, support)
    init[:m] = spec.initial.probs[:m]
    for idx in index_sets:
        mass = init @ np.linalg.matrix_power(trans, idx[0])
        for prev, cur in zip(idx, idx[1:]):
            mass = mass[..., None] * np.linalg.matrix_power(trans, cur - prev)
        mass.setflags(write=False)
        err = 1.0 - math.fsum(mass[mass != 0.0].tolist())  # zeros add nothing
        yield TupleLaw(tuple(idx), mass, max(0.0, err))


def marginal_at(spec: MarkovChainSpec, j: int) -> Pmf:
    """Initial law pushed through the kernel j times.

    Support grows freely up to the output of each kernel row; input states
    above the chain's cap escape into the tail, so the result's tail mass
    is an honest bound on everything unaccounted for.  This is ``push``
    applied j times, computed as ``init @ T^(j-1) @ trans`` with ``T`` the
    kernel truncated to {0..cap}, so the matrix power takes O(log j)
    products.
    """
    if j < 0:
        raise InvalidParameterError("j must be nonnegative")
    if j == 0:
        return spec.initial
    trans = transition_matrix(spec, spec.state_cap)
    rows = trans.shape[0]
    init = np.zeros(rows)
    top = min(spec.initial.probs.size, rows)
    init[:top] = spec.initial.probs[:top]
    out = init @ np.linalg.matrix_power(trans[:, :rows], j - 1) @ trans
    return Pmf(out, max(0.0, 1.0 - math.fsum(out.tolist())))


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of about ``_BLOCK_CELLS`` cells (at least one row)."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def write_ensemble_csv(ensemble: PathEnsemble, path) -> None:
    """One row per path with `#`-prefixed metadata lines, then a header row.

    Rows are encoded a block at a time: each value's decimal digits are
    right-aligned in a zero-filled byte grid with a sign byte in front and
    a separator byte (``,`` or a newline) behind; the grid is written with
    its zero bytes deleted.  Digits are computed in the narrowest unsigned
    type that holds the largest magnitude, and the sign bytes are filled
    only when some value is negative.
    """
    meta = {k: v for k, v in ensemble.params.items()}
    lines = [
        f"# construction={meta.pop('construction', 'unknown')}",
        f"# params={json.dumps(meta, sort_keys=True)}",
        f"# root_seed={ensemble.seed.root_seed} stream_index={ensemble.seed.stream_index}",
        f"# n_paths={ensemble.n_paths} length={ensemble.length}",
        ",".join(f"t{k}" for k in range(ensemble.length)),
        "",
    ]
    paths = ensemble.paths
    n_rows, n_cols = paths.shape
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8"))
        if paths.size == 0:
            fh.write(b"\n" * n_rows)
            return
        lo = int(paths.min())
        top = max(int(paths.max()), -lo)  # the largest magnitude
        width = len(str(top))
        blocks = _row_blocks(n_rows, n_cols)
        shape = (min(n_rows, blocks[0].stop), n_cols)
        mag, quot, digit = (np.empty(shape, dtype=np.min_scalar_type(top)) for _ in range(3))
        live = np.empty(shape, dtype=bool)
        grid = np.zeros(shape + (width + 2,), dtype=np.uint8)
        grid[:, :, -1] = ord(",")
        grid[:, -1, -1] = ord("\n")
        for b in blocks:
            block = paths[b]
            r = block.shape[0]
            g, m, q, d, nz = grid[:r], mag[:r], quot[:r], digit[:r], live[:r]
            np.abs(block, out=m, casting="unsafe")  # |int64 min| reads as 2**63 in uint64
            if lo < 0:  # otherwise the sign bytes stay zero and are deleted with the others
                np.less(block, 0, out=g[:, :, 0])
                g[:, :, 0] *= ord("-")
            for col in range(width, 0, -1):
                np.floor_divide(m, 10, out=q)
                np.multiply(q, 10, out=d)
                np.subtract(m, d, out=d)
                d += ord("0")
                if col < width:  # no leading zeros
                    np.not_equal(m, 0, out=nz)
                    d *= nz
                np.copyto(g[:, :, col], d, casting="unsafe")
                m, q = q, m
            fh.write(g.tobytes().translate(None, b"\0"))
