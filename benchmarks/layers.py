"""The traced functions of each inarlab layer and the per-layer metrics.

Span names are ``<module>.<function>`` under ``inarlab``.  Each counter
reads only the call's arguments and return value.  ``PER_LAYER`` is the
list that ``BENCHMARK.json`` publishes; ``README.md`` in this directory
states which end-to-end metric each one should move, and on which
workload.
"""

from __future__ import annotations

import os
import statistics
import sys

from tracing import Target, Tracer, arg


def _superposition(tr: Tracer, args, kwargs, result) -> None:
    config = arg(args, kwargs, 1, "config")
    length = arg(args, kwargs, 2, "length")
    n_paths = arg(args, kwargs, 3, "n_paths")
    name = "chains.simulate_inar_superposition"
    tr.add(name + ".path_generations", n_paths * (config.effective_warmup + length))
    tr.add(name + ".in_window_generations", n_paths * length)


def _direct(tr: Tracer, args, kwargs, result) -> None:
    length = arg(args, kwargs, 1, "length")
    n_paths = arg(args, kwargs, 2, "n_paths")
    tr.add("chains.simulate_inar_direct.path_steps", n_paths * length)


def _csv_bytes(tr: Tracer, args, kwargs, result) -> None:
    tr.add("chains.write_ensemble_csv.bytes", os.path.getsize(arg(args, kwargs, 1, "path")))


def _atoms(tr: Tracer, args, kwargs, result) -> None:
    tr.add("chains.window_joint_pmf.atoms", len(result.atoms))


def _cells(tr: Tracer, args, kwargs, result) -> None:
    rows, cols = arg(args, kwargs, 0, "joint").mass.shape
    tr.add("dependence.maximal_correlation.cells", rows * cols)


def _event_pairs(tr: Tracer, args, kwargs, result) -> None:
    # Enumeration runs over the atoms of positive marginal mass only.
    joint = arg(args, kwargs, 0, "joint")
    r = int((joint.row_marginal() > 0.0).sum())
    c = int((joint.col_marginal() > 0.0).sum())
    tr.add("dependence.lambda_coefficient.event_pairs", (2**r - 1) * (2**c - 1))


def _scan(tr: Tracer, args, kwargs, result) -> None:
    tr.add("mixing.rho_star_window.pairs", result.pair_count)
    tr.maximum("mixing.rho_star_window.truncation_error", result.truncation_error)


def _campaign(tr: Tracer, args, kwargs, result) -> None:
    tr.add("harness.checks", len(result))
    tr.add(
        "harness.mc_rejected",
        sum(1 for r in result if r.provenance == "monte-carlo" and not r.passed),
    )


def _rows_tallied(tr: Tracer, args, kwargs, result) -> None:
    tr.add(
        "harness.check_construction_equivalence.rows_tallied",
        arg(args, kwargs, 1, "n_paths"),
    )


def _t(name: str, count=None) -> Target:
    module, attr = name.split(".", 1)
    return Target(name, "inarlab." + module, attr, count)


TARGETS = (
    _t("pmf.poisson_pmf"),
    _t("pmf.binomial_pmf"),
    _t("pmf.convolve"),
    _t("pmf.total_variation"),
    _t("chains.simulate_inar_superposition", _superposition),
    _t("chains.simulate_inar_direct", _direct),
    _t("chains.simulate_chain"),
    _t("chains.indicator_chain"),
    _t("chains.write_ensemble_csv", _csv_bytes),
    _t("chains.window_joint_pmf", _atoms),
    _t("chains.TupleLaw.split"),
    _t("chains.marginal_at"),
    _t("dependence.maximal_correlation", _cells),
    _t("dependence.lambda_coefficient", _event_pairs),
    _t("dependence.markov_triplet_residual"),
    _t("mixing.rho_star_window", _scan),
    _t("mixing.enumerate_window_pairs"),
    _t("mixing.lag_joint"),
    _t("mixing.verify_indicator_bound"),
    _t("mixing.verify_absorbing_split"),
    _t("harness.run_all", _campaign),
    _t("harness.check_stationary_marginal"),
    _t("harness.check_innovation_independence"),
    _t("harness.check_thinning_conditional"),
    _t("harness.check_construction_equivalence", _rows_tallied),
    _t("harness.check_markov_property"),
    _t("harness.reports_to_json"),
    _t("serialize.dumps"),
    _t("cli.main"),
)

# (name, unit, better); every counter-derived entry is a work count that
# repeats exactly for one seed.
PER_LAYER = (
    ("pmf.poisson_pmf.calls", "count", "lower"),
    ("pmf.poisson_pmf.self_s", "s", "lower"),
    ("pmf.binomial_pmf.calls", "count", "lower"),
    ("pmf.binomial_pmf.self_s", "s", "lower"),
    ("pmf.convolve.calls", "count", "lower"),
    ("pmf.convolve.self_s", "s", "lower"),
    ("pmf.total_variation.self_s", "s", "lower"),
    ("chains.simulate_inar_superposition.self_s", "s", "lower"),
    ("chains.simulate_inar_superposition.path_generations", "count", "lower"),
    ("chains.simulate_inar_superposition.in_window_share", "ratio", "higher"),
    ("chains.simulate_inar_direct.self_s", "s", "lower"),
    ("chains.simulate_inar_direct.path_steps", "count", "lower"),
    ("chains.simulate_chain.self_s", "s", "lower"),
    ("chains.indicator_chain.self_s", "s", "lower"),
    ("chains.write_ensemble_csv.self_s", "s", "lower"),
    ("chains.write_ensemble_csv.bytes", "count", "lower"),
    ("chains.window_joint_pmf.self_s", "s", "lower"),
    ("chains.window_joint_pmf.calls", "count", "lower"),
    ("chains.window_joint_pmf.atoms", "count", "lower"),
    ("chains.TupleLaw.split.self_s", "s", "lower"),
    ("chains.TupleLaw.split.calls", "count", "lower"),
    ("chains.marginal_at.self_s", "s", "lower"),
    ("dependence.maximal_correlation.self_s", "s", "lower"),
    ("dependence.maximal_correlation.calls", "count", "lower"),
    ("dependence.maximal_correlation.cells", "count", "lower"),
    ("dependence.lambda_coefficient.self_s", "s", "lower"),
    ("dependence.lambda_coefficient.event_pairs", "count", "lower"),
    ("dependence.markov_triplet_residual.self_s", "s", "lower"),
    ("mixing.rho_star_window.self_s", "s", "lower"),
    ("mixing.rho_star_window.pairs", "count", "lower"),
    ("mixing.rho_star_window.law_reuse", "ratio", "higher"),
    ("mixing.rho_star_window.truncation_error", "mass", "lower"),
    ("mixing.enumerate_window_pairs.self_s", "s", "lower"),
    ("mixing.lag_joint.self_s", "s", "lower"),
    ("mixing.verify_indicator_bound.self_s", "s", "lower"),
    ("mixing.verify_absorbing_split.self_s", "s", "lower"),
    ("harness.run_all.self_s", "s", "lower"),
    ("harness.check_stationary_marginal.self_s", "s", "lower"),
    ("harness.check_innovation_independence.self_s", "s", "lower"),
    ("harness.check_thinning_conditional.self_s", "s", "lower"),
    ("harness.check_construction_equivalence.self_s", "s", "lower"),
    ("harness.check_construction_equivalence.rows_tallied", "count", "lower"),
    ("harness.check_markov_property.self_s", "s", "lower"),
    ("harness.reports_to_json.self_s", "s", "lower"),
    ("harness.checks", "count", "higher"),
    ("harness.mc_rejected", "count", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
)


def patched_modules(extra=()) -> list:
    """Every loaded inarlab module plus ``extra``: the places callers look up."""
    found = [
        module
        for name, module in sys.modules.items()
        if name == "inarlab" or name.startswith("inarlab.")
    ]
    return found + list(extra)


def work_counts(tracer: Tracer) -> dict[str, float]:
    """Counter values of one traced iteration, with the derived ratios."""
    counts = dict(tracer.counters)
    name = "chains.simulate_inar_superposition"
    generations = counts.get(name + ".path_generations", 0)
    counts[name + ".in_window_share"] = (
        counts.get(name + ".in_window_generations", 0) / generations if generations else 0.0
    )
    builds = tracer.child_count("mixing.rho_star_window", "chains.window_joint_pmf")
    pairs = counts.get("mixing.rho_star_window.pairs", 0)
    counts["mixing.rho_star_window.law_reuse"] = pairs / builds if builds else 0.0
    return counts


def repeatable_counts(tracer: Tracer) -> dict[str, float]:
    """The counters that must repeat exactly at one seed: all but the maximum
    truncation error, which is a value rather than a count of work."""
    return {
        k: v
        for k, v in tracer.counters.items()
        if k != "mixing.rho_star_window.truncation_error"
    }


def layer_metrics(
    tracers: list[Tracer], traced_walls: list[float], untraced_wall: float
) -> dict[str, float]:
    """Per-layer metrics: self times as medians over the traced iterations,
    counts from the first (the caller checks that they repeat)."""
    counts = work_counts(tracers[0])
    selfs = [t.self_times() for t in tracers]
    traced_wall = statistics.median(traced_walls)
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = traced_wall - untraced_wall
        elif name == "trace.span_coverage":
            values[name] = statistics.median(
                t.covered_time() / w for t, w in zip(tracers, traced_walls)
            )
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            values[name] = statistics.median(s.get(span, 0.0) for s in selfs)
        else:
            values[name] = counts.get(name, 0)
    return values
