"""Markov chain constructions and exact finite-window laws.

Covers the count autoregression with binomial thinning and Poisson
innovations (built two ways: directly from its transition structure, and
as a superposition of independent pure-death chains), the pure-death
chains themselves, binary indicator-product chains, and seeded path
simulation.  A chain is data: an initial law, a survival rate and an
innovation law.  Every exact law (window joints, lag joints, marginals,
and the verification harness's Markov triplets) comes from one dense
engine: the closed-form kernel table of :func:`transition_matrix`,
contracted with numpy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dependence import DEFAULT_EXPLOSION_LIMIT, JointPmf, _serial_blas, _without_null_atoms
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
    _integer,
    _lost_mass,
    _owned,
    _padded,
    _require_finite_nonnegative,
    _require_sampleable,
    _smallest,
    binomial_pmf,
    binomial_table,
    point_mass,
    poisson_pmf,
)

__all__ = [
    "InarParams",
    "MarkovChainSpec",
    "PathEnsemble",
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
    "window_joint_pmf",
    "marginal_at",
    "write_ensemble_csv",
]

DEFAULT_SUPERPOSITION_BUDGET = 1e-9  # neglected mean mass a default depth may leave
_BLOCK_CELLS = 1 << 16  # cells per row block when writing ensembles
# The superposition costs about (depth + length) x (n_paths + C) work units of
# 55-62 ns each: a generation's fixed cost (11-15 us) is worth about C paths.
# Each step a live generation takes inside the window costs about C more (see
# _superposition_work).  A run above the budget (some 6 s of drawing) is
# refused before it draws.
_GENERATION_OVERHEAD_PATHS = 200  # C
_GENERATION_BUDGET = 10**8
# Largest stationary mean the simulators accept.  numpy refuses Poisson means
# above about 9.2e18, and sums of counts near 2**63 would overflow int64.
_MAX_COUNT_MEAN = 2.0**62


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(length: int, n_paths: int, matrices: int = 0, columns: int = 0) -> None:
    """Refuse a simulation whose length or path count is not a positive
    integer, or whose ``matrices`` int64 path matrices plus ``columns`` int64
    vectors of one entry per path would exceed physical memory.

    The simulators' buffers start as int8 and ``_fitted`` widens one only
    when a count needs it, so this counts int64, the widest type a count can
    need.  A widening briefly holds the old buffer and the new one, so a run
    whose counts need int64 can peak up to half an int64 matrix (an int32
    buffer and its int64 copy) above this count."""
    length, n_paths = _integer(length, "length", 1), _integer(n_paths, "n_paths", 1)
    need = (matrices * length + columns) * n_paths * np.dtype(np.int64).itemsize
    have = _physical_memory()
    if need > have:
        raise ResourceLimitError(
            f"{n_paths} paths of length {length} need about {need / 2**30:.3g} GiB "
            f"of int64 arrays, more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _fitted(buffer: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``buffer`` as it is when its type holds ``values.max()``, else a copy
    in the narrowest wider signed type that does.  Each simulator calls it on
    a step's counts before storing them, so its buffer stays in the narrowest
    signed type of the run's counts and a store never wraps."""
    top = int(values.max()) if values.size else 0
    if top <= np.iinfo(buffer.dtype).max:
        return buffer
    return buffer.astype(np.promote_types(buffer.dtype, np.min_scalar_type(-top - 1)))


def _counts(paths) -> np.ndarray:
    """A holder's count matrix (see ``pmf._owned``): a signed-integer array
    of any width held as it is, anything else converted to int64."""
    paths = np.asarray(paths)
    return _owned(paths, paths.dtype if paths.dtype.kind == "i" else np.int64)


def _require_survival(a: float) -> None:
    if not (0.0 < a < 1.0):
        raise InvalidParameterError("a must lie in (0, 1)")


@dataclass(frozen=True)
class InarParams:
    """Thinning/survival parameter ``a`` and innovation mean ``lam``."""

    a: float
    lam: float

    def __post_init__(self):
        _require_survival(self.a)
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise InvalidParameterError("lam must be positive and finite")

    @property
    def stationary_mean(self) -> float:
        return self.lam / (1.0 - self.a)


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Initial law plus one step: from state x, Binomial(x, a) survivors plus
    an independent ``innovation`` draw (death chains add ``point_mass(0)``)."""

    initial: Pmf
    a: float
    innovation: Pmf
    description: Mapping = field(default_factory=dict)
    # transition_matrix's read-only table per cap, built on first use (two
    # threads may both build one; either serves)
    _kernels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0):
            raise InvalidParameterError("a must lie in [0, 1]")

    @property
    def state_cap(self) -> int:
        return self.initial.max_state


def _survivors(x: np.ndarray, v: np.ndarray, x_prev: np.ndarray | None = None) -> np.ndarray:
    """The survivors ``x - v`` of one step, in the wider of the two types.

    Refuses a negative innovation, an innovation above its count and, given
    the previous counts ``x_prev``, survivors above them.  The refusals come
    first, so ``0 <= x - v <= x`` and the difference cannot wrap."""
    if np.any(v < 0):
        raise InvalidParameterError("innovations must be nonnegative")
    if np.any(v > x):
        raise InvalidParameterError("innovations exceed their count")
    rest = np.subtract(x, v)
    if x_prev is not None and np.any(rest > x_prev):
        raise InvalidParameterError("survivors exceed their source count")
    return rest


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Matrix of simulated paths, one row per path, plus its provenance and,
    optionally, the innovations ``v`` of each count; the survivors are the
    rest, ``u = paths - v``.

    Regenerating with the same seed and parameters reproduces the matrices
    exactly.  The ensemble owns them (see ``_counts``); the simulators fill
    one step at a time, so theirs are transposes of step-major buffers, in
    Fortran layout, in the narrowest signed type of their counts.  Given
    ``v``, it applies ``_survivors`` at every step, with the previous counts
    wherever they exist.
    """

    paths: np.ndarray
    seed: SeedSpec
    params: Mapping
    v: np.ndarray | None = None

    def __post_init__(self):
        paths = _counts(self.paths)
        if paths.ndim != 2:
            raise InvalidParameterError("paths must be a 2-D matrix")
        object.__setattr__(self, "paths", paths)
        if self.v is None:
            return
        v = _counts(self.v)
        if v.shape != paths.shape:
            raise InvalidParameterError("paths and v must share a shape")
        object.__setattr__(self, "v", v)
        # one step at a time: a contiguous row of a simulator's step-major
        # buffer, so no full-size temporary is built
        for k in range(paths.shape[1]):
            _survivors(paths[:, k], v[:, k], paths[:, k - 1] if k else None)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def length(self) -> int:
        return self.paths.shape[1]

    @property
    def u(self) -> np.ndarray:
        """The survivors ``paths - v``, a new array on each read, in
        ``np.result_type(paths, v)``; they lie in [0, paths], so they cannot
        wrap."""
        _require_innovations(self, "u")
        return np.subtract(self.paths, self.v)


def _require_innovations(ensemble: PathEnsemble, component: str) -> None:
    if ensemble.v is None:
        raise InvalidParameterError(
            f"component {component} needs innovations, and this ensemble holds none"
        )


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
        object.__setattr__(self, "depth", _integer(self.depth, "depth", 1, InvalidConfigError))
        if not (0.0 < self.tail_budget < 1.0):
            raise InvalidConfigError("tail_budget must lie in (0, 1)")

    @property
    def effective_warmup(self) -> int:
        """Always ``depth``; ``benchmarks/layers.py`` reads it until ROADMAP item 9."""
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
        """Smallest depth meeting the neglected-mean budget: ``_smallest`` on
        ``neglected_mean`` itself from depth 1, so no estimate can underflow,
        and a depth of 10**18 (a near 1) takes about 120 steps.  A budget
        outside (0, 1) is refused by the first depth tried.
        """

        def fits(depth: int) -> bool:
            return cls(depth, tail_budget).neglected_mean(params) <= tail_budget

        return cls(depth=_smallest(fits, 1, 1), tail_budget=tail_budget)


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


def _death_chain(initial: Pmf, a: float, description: Mapping) -> MarkovChainSpec:
    """Pure-death chain from ``initial``: no innovation, survival rate a."""
    _require_survival(a)
    return MarkovChainSpec(initial, a, point_mass(0), description)


def binomial_death_chain(n: int, p: float, a: float) -> MarkovChainSpec:
    """Pure-death chain started from Binomial(n, p); trajectories never rise."""
    n = _integer(n, "n", 1)
    if not (0.0 < p < 1.0):
        raise InvalidParameterError("p must lie in (0, 1)")
    description = {"construction": "death-binomial", "n": n, "p": p, "a": a}
    return _death_chain(binomial_pmf(n, p), a, description)


def poisson_death_chain(
    lam: float, a: float, tail_budget: float = DEFAULT_TAIL_BUDGET
) -> MarkovChainSpec:
    """Pure-death chain started from Poisson(lam)."""
    description = {"construction": "death-poisson", "lambda": lam, "a": a}
    return _death_chain(poisson_pmf(lam, tail_budget), a, description)


def indicator_chain_spec(p0: float, a: float) -> MarkovChainSpec:
    """Binary chain: start Bernoulli(p0), survive each step with probability a.

    This is the exact-law counterpart of :func:`indicator_chain`; the state 0
    is absorbing.
    """
    if not (0.0 <= p0 <= 1.0):
        raise InvalidParameterError("p0 must lie in [0, 1]")
    description = {"construction": "indicator", "p0": p0, "a": a}
    return _death_chain(Pmf(np.array([1.0 - p0, p0])), a, description)


def _ensemble(x, seed: SeedSpec, description: Mapping, v=None) -> PathEnsemble:
    """A simulator's result from its step-major buffers of counts ``x`` and
    innovations ``v``, one path per column: the held matrices are their
    transposes, and the params are ``description`` plus the run's
    ``length`` and ``n_paths``."""
    params = dict(description, length=x.shape[0], n_paths=x.shape[1])
    return PathEnsemble(x.T, seed, params, None if v is None else v.T)


def indicator_chain(
    p0: float, a: float, length: int, n_paths: int, seed: SeedSpec
) -> PathEnsemble:
    """Simulated indicator-product paths: z_k = z_0 * prod of Bernoulli(a) flags.

    Paths are {0,1}-valued and nonincreasing.
    """
    spec = indicator_chain_spec(p0, a)
    _require_memory(length, n_paths, 1)
    # first, as in simulate_inar_direct; {0, 1} values never need widening
    paths = np.empty((length, n_paths), dtype=np.int8)
    rng = seed.generator()
    paths[0] = rng.random(n_paths) < p0
    for k in range(1, length):
        paths[k] = paths[k - 1] & (rng.random(n_paths) < a)
    return _ensemble(paths, seed, spec.description)


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The states whose tabulated ``cdf`` first exceeds each uniform, clamped
    at the table's last state (the tail mass a sampleable law may lose)."""
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), cdf.size - 1)


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
    paths = np.empty((length, n_paths), dtype=np.int8)  # first, as in simulate_inar_direct
    rng = seed.generator()
    _require_sampleable(spec.initial)
    if length > 1:
        _require_sampleable(spec.innovation)
    start = _inverse_cdf(np.cumsum(spec.initial.probs), rng.random(n_paths))
    paths = _fitted(paths, start)
    paths[0] = start
    cdfs: dict[int, np.ndarray] = {}
    for k in range(1, length):
        counts = np.bincount(paths[k - 1])
        # paths grouped by state, ascending, in path order within a state; a
        # key of the narrowest unsigned type lets the stable sort run as radix
        key = paths[k - 1].astype(np.min_scalar_type(counts.size - 1))
        order = np.argsort(key, kind="stable")
        # one call takes the same uniforms as one call per state laid end to end
        uniforms = rng.random(n_paths)
        lo = 0
        for s in np.flatnonzero(counts).tolist():
            hi = lo + int(counts[s])
            cdf = cdfs.get(s)
            if cdf is None:
                cdf = cdfs[s] = np.cumsum(_kernel_row(spec, s))
            draws = _inverse_cdf(cdf, uniforms[lo:hi])
            paths = _fitted(paths, draws)
            paths[k, order[lo:hi]] = draws
            lo = hi
    return _ensemble(paths, seed, spec.description)


def _require_countable(params: InarParams) -> None:
    if params.stationary_mean > _MAX_COUNT_MEAN:
        raise InvalidParameterError(
            f"stationary mean lam / (1 - a) = {params.stationary_mean:.3e} is too "
            f"large for int64 counts (at most {_MAX_COUNT_MEAN:.3e})"
        )


def _direct_steps(
    params: InarParams, n_paths: int, seed: SeedSpec
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The direct chain's steps ``(x_k, v_k)`` for k = 0, 1, ..., without end,
    drawn as :func:`simulate_inar_direct` describes.

    Every step is a pair of new arrays that the stream never writes again.
    As a generator it checks and draws nothing before the first step is
    asked for.
    """
    _require_countable(params)
    rng = seed.generator()
    x = rng.poisson(params.stationary_mean, n_paths)
    while True:
        x = rng.binomial(x, params.a)
        v = rng.poisson(params.lam, n_paths)
        x += v
        yield x, v


def simulate_inar_direct(
    params: InarParams, length: int, n_paths: int, seed: SeedSpec
) -> PathEnsemble:
    """Simulate the chain from its transition structure.

    The pre-window state is drawn from the stationary law, then each step
    draws survivors Binomial(previous, a) and an independent Poisson(lam)
    innovation, so the decomposition identities hold by construction.  The
    paths are the first ``length`` steps of ``_direct_steps``, the stream
    that the verification campaign reads without storing it.
    """
    _require_countable(params)
    _require_memory(length, n_paths, 2)  # x, v
    # the step-major buffers come before the generator and every per-step
    # vector, so they can take the slots that freed path matrices left whole
    x = np.empty((length, n_paths), dtype=np.int8)
    v = np.empty_like(x)
    for k, (x_k, v_k) in zip(range(length), _direct_steps(params, n_paths, seed)):
        x, v = _fitted(x, x_k), _fitted(v, v_k)
        x[k], v[k] = x_k, v_k
    description = {"construction": "direct", "a": params.a, "lambda": params.lam}
    return _ensemble(x, seed, description, v)


def _superposition_work(params: InarParams, depth: int, length: int, n_paths: int) -> float:
    """Work units of a superposition run: every generation's draw over all
    paths, plus C per step each live generation takes inside the window.

    A generation lives about L = ln(lam n_paths) / -ln(a) + 1 steps, until
    fewer than one of its members is expected on any path.  The ``length``
    newborns and the ``min(depth, L)`` youngest older generations are alive
    at index 0, and each steps ``min(length, L)`` times.
    """
    c = _GENERATION_OVERHEAD_PATHS
    life = 1.0 + max(0.0, math.log(params.lam * n_paths) / -math.log(params.a))
    steps = (length + min(depth, life)) * min(length, life)
    return (depth + length) * (n_paths + c) + steps * c


def simulate_inar_superposition(
    params: InarParams,
    config: SuperpositionConfig,
    length: int,
    n_paths: int,
    seed: SeedSpec,
) -> PathEnsemble:
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
    _require_memory(length, n_paths, 2)  # x, v
    depth = config.depth
    work = _superposition_work(params, depth, length, n_paths)
    if work > _GENERATION_BUDGET:
        raise ResourceLimitError(
            f"depth {depth} and length {length} over {n_paths} paths need {work:.3g} "
            f"work units, above the superposition budget {_GENERATION_BUDGET:.3g}"
        )
    x = np.zeros((length, n_paths), dtype=np.int8)  # first, as in simulate_inar_direct
    v = np.empty_like(x)
    rng = seed.generator()
    for start in range(-depth, length):
        y = rng.poisson(params.lam, n_paths)
        if start < 0:
            y = rng.binomial(y, params.a ** -start)  # composed thinning to index 0
        else:
            v = _fitted(v, y)
            v[start] = y
        k, stop = max(start, 0), min(start + depth, length - 1)
        nz = np.flatnonzero(y)
        y = y[nz]
        while nz.size:
            total = x[k, nz] + y  # int64, so the sum cannot wrap before it is fitted
            x = _fitted(x, total)
            x[k, nz] = total
            if k == stop:
                break
            k += 1
            y = rng.binomial(y, params.a)
            alive = y > 0
            nz, y = nz[alive], y[alive]
    description = {"construction": "superposition", "a": params.a, "lambda": params.lam}
    return _ensemble(x, seed, dict(description, depth=depth), v)


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
    truncation.  The table is read-only and built once per (spec, cap).
    """
    cap = _integer(cap, "cap", 0)
    out = spec._kernels.get(cap)
    if out is not None:
        return out
    innovation = spec.innovation.probs
    if spec.a == 0.0:
        out = np.tile(_padded(innovation, max(cap + 1, innovation.size)), (cap + 1, 1))
    else:
        table = binomial_table(cap, spec.a)
        out = np.zeros((cap + 1, cap + innovation.size))
        for x in range(cap + 1):
            out[x, : x + innovation.size] = np.convolve(table[x, : x + 1], innovation)
    spec._kernels[cap] = out = _owned(out, np.float64)
    return out


def _window_indices(indices: Sequence[int]) -> tuple[int, ...]:
    """``indices`` as a tuple of ints, refused unless nonempty, nonnegative
    and strictly increasing."""
    idx = tuple(_integer(i, "index", 0) for i in indices)
    if not idx or any(b <= a for a, b in zip(idx, idx[1:])):
        raise InvalidParameterError("indices must be nonempty, nonnegative, strictly increasing")
    return idx


@dataclass(frozen=True, eq=False)
class TupleLaw:
    """Exact joint law of a chain observed at a finite set of indices.

    ``mass`` is a dense tensor with one axis per observed index (in index
    order), each axis covering the states 0..cap; ``mass[x0, x1, ...]`` is
    the probability of that observation tuple.  ``truncation_error`` is
    the mass lost to state truncation and kernel tails, ``1 - sum(mass)``.
    Indices that are not nonempty, nonnegative and strictly increasing, and
    a tensor without one axis per index, all of one length, are refused.
    The law owns its tensor (see ``pmf._owned``), so no alias can change it
    after the one mass check that every split relies on.
    """

    indices: tuple[int, ...]
    mass: np.ndarray
    truncation_error: float

    def __post_init__(self):
        object.__setattr__(self, "indices", _window_indices(self.indices))
        mass = _owned(self.mass, np.float64)
        if mass.ndim != len(self.indices) or len(set(mass.shape)) > 1:
            raise InvalidParameterError("mass must have one axis per index, all of one length")
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
        missing = [i for i in (*s_indices, *t_indices) if i not in self.indices]
        if missing:
            raise InvalidParameterError(
                f"index {missing[0]!r} is not one of the law's indices {self.indices}"
            )
        s_pos = [self.indices.index(i) for i in sorted(s_indices)]
        t_pos = [self.indices.index(i) for i in sorted(t_indices)]
        if not s_pos or not t_pos or set(s_pos) & set(t_pos):
            raise InvalidParameterError("S and T must be disjoint and nonempty")
        support = self.mass.shape[0]
        mass = self._sum_to(s_pos + t_pos).reshape(
            support ** len(s_pos), support ** len(t_pos)
        )
        # in C order, the order the renormalizing sum reads in
        mass = _without_null_atoms(np.ascontiguousarray(mass))
        if not mass.size:
            raise ResourceLimitError(f"cap {support - 1} keeps none of the mass; raise the cap")
        return JointPmf._checked(mass / mass.sum())


def require_window_atoms(cap: int, count: int) -> None:
    """Refuse a cap that is not a nonnegative integer, or a window law over
    ``count`` indices whose dense table at this cap would exceed
    ``DEFAULT_EXPLOSION_LIMIT`` cells."""
    cap = _integer(cap, "cap", 0)
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
    ``truncation_error``, not renormalized away.  Every call at one cap
    reads the one kernel table the spec keeps for it.
    """
    idx = _window_indices(indices)
    require_window_atoms(cap, len(idx))
    support = cap + 1
    trans = transition_matrix(spec, cap)[:, :support]
    with _serial_blas(trans.size):
        mass = _padded(spec.initial.probs, support) @ np.linalg.matrix_power(trans, idx[0])
        for prev, cur in zip(idx, idx[1:]):
            mass = mass[..., None] * np.linalg.matrix_power(trans, cur - prev)
    return TupleLaw(idx, mass, _lost_mass(mass))


def marginal_at(spec: MarkovChainSpec, j: int) -> Pmf:
    """Initial law pushed through the kernel j times.

    One step takes a law on {0..cap} to ``law @ trans``, ``trans`` being the
    chain's ``transition_matrix`` at its state cap: support grows to the
    table's width, and mass from states above the cap drops into the tail,
    so the result's tail mass bounds everything unaccounted for.  The j
    steps are ``init @ T^(j-1) @ trans`` with ``T`` the kernel truncated to
    {0..cap}, so the matrix power takes O(log j) products.
    """
    j = _integer(j, "j", 0)
    if j == 0:
        return spec.initial
    trans = transition_matrix(spec, spec.state_cap)
    rows = trans.shape[0]  # state_cap + 1, the initial table's size
    with _serial_blas(trans.size):
        out = spec.initial.probs @ np.linalg.matrix_power(trans[:, :rows], j - 1) @ trans
    return Pmf(out, _lost_mass(out))


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of about ``_BLOCK_CELLS`` cells (at least one row)."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _extent(paths: np.ndarray) -> tuple[int, int]:
    """Smallest and largest value of a matrix, (0, 0) when it is empty."""
    return (int(paths.min()), int(paths.max())) if paths.size else (0, 0)


def write_ensemble_csv(ensemble: PathEnsemble, path, component: str = "x") -> None:
    """One row per path of the counts ``x``, the innovations ``v`` or the
    survivors ``u``, with `#`-prefixed metadata lines, then a header row.
    For ``u`` and ``v`` the params line also names the component.

    Rows are encoded a block at a time: each value's decimal digits are
    right-aligned in a zero-filled byte grid with a sign byte in front and
    a separator byte (``,`` or a newline) behind; the grid is written with
    its zero bytes deleted.  Digits are computed in the narrowest unsigned
    type that holds the largest magnitude, and the sign bytes are filled
    only when some value is negative.  The survivors are read one row block
    ``x[b] - v[b]`` at a time, so their matrix is never built.  They lie in
    [0, x], so (0, max x) bounds them; bounds wider than the values give the
    same bytes, since the extra leading-zero digits are zero bytes and are
    deleted with the others.
    """
    if component not in ("x", "u", "v"):
        raise InvalidParameterError(f"component must be x, u or v, got {component!r}")
    x, v = ensemble.paths, ensemble.v
    meta = dict(ensemble.params)
    if component != "x":
        _require_innovations(ensemble, component)
        meta["component"] = component
    if component == "u":
        block, (lo, hi) = (lambda b: x[b] - v[b]), (0, _extent(x)[1])
    else:
        held = x if component == "x" else v
        block, (lo, hi) = (lambda b: held[b]), _extent(held)
    n_rows, n_cols = x.shape
    lines = [
        f"# construction={meta.pop('construction', 'unknown')}",
        f"# params={json.dumps(meta, sort_keys=True)}",
        f"# root_seed={ensemble.seed.root_seed} stream_index={ensemble.seed.stream_index}",
        f"# n_paths={n_rows} length={n_cols}",
        ",".join(f"t{k}" for k in range(n_cols)),
        "",
    ]
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8"))
        if n_rows * n_cols == 0:
            fh.write(b"\n" * n_rows)
            return
        top = max(hi, -lo)  # the largest magnitude
        width = len(str(top))
        blocks = _row_blocks(n_rows, n_cols)
        cells = (min(n_rows, blocks[0].stop), n_cols)
        mag, quot, digit = (np.empty(cells, dtype=np.min_scalar_type(top)) for _ in range(3))
        live = np.empty(cells, dtype=bool)
        grid = np.zeros(cells + (width + 2,), dtype=np.uint8)
        grid[:, :, -1] = ord(",")
        grid[:, -1, -1] = ord("\n")
        for b in blocks:
            values = block(b)
            r = values.shape[0]
            g, m, q, d, nz = grid[:r], mag[:r], quot[:r], digit[:r], live[:r]
            np.abs(values, out=m, casting="unsafe")  # |int64 min| reads as 2**63 in uint64
            if lo < 0:  # otherwise the sign bytes stay zero and are deleted with the others
                np.less(values, 0, out=g[:, :, 0])
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
