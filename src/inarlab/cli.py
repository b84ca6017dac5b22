"""Command-line interface: simulation, coefficients, certificates, campaigns.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 resource-limit or numerical error.  JSON outputs carry 17-significant-digit
floats and sorted keys, so identical invocations produce identical bytes; CSV
outputs start with `#`-prefixed metadata lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import click

from .chains import (
    InarParams,
    PathEnsemble,
    SuperpositionConfig,
    binomial_death_chain,
    iid_chain,
    inar_kernel,
    indicator_chain,
    indicator_chain_spec,
    marginal_at,
    poisson_death_chain,
    simulate_chain,
    simulate_inar_direct,
    simulate_inar_superposition,
    write_ensemble_csv,
)
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    NumericalError,
    ResourceLimitError,
    SamplingBudgetError,
)
from .harness import McConfig, _job_seconds, reports_to_json, run_all
from .mixing import (
    fit_decay_rate,
    gap_for_epsilon,
    lag_joints,
    rho_star_window,
)
from .dependence import maximal_correlation
from .pmf import DEFAULT_TAIL_BUDGET, SeedSpec
from .serialize import dumps

EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
DEFAULT_MAX_ESCAPE = 1e-9  # truncated mass an exact command tolerates by default

SIM_CONSTRUCTIONS = (
    "direct",
    "superposition",
    "death-poisson",
    "death-binomial",
    "indicator",
)
CHAIN_CONSTRUCTIONS = (
    "direct",
    "death-poisson",
    "death-binomial",
    "indicator",
    "iid",
)


def _exit_on_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ResourceLimitError, SamplingBudgetError, MemoryError) as exc:
            click.echo(f"resource limit: {str(exc) or 'out of memory'}", err=True)
            sys.exit(EXIT_RESOURCE)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(EXIT_RESOURCE)
        except (InvalidParameterError, InsufficientDataError) as exc:
            click.echo(f"invalid parameters: {exc}", err=True)
            sys.exit(EXIT_USAGE)

    return wrapper


def _require(mapping: dict, *names: str) -> list:
    missing = [n for n in names if mapping.get(n) is None]
    if missing:
        raise InvalidParameterError(
            f"missing required option(s): {', '.join('--' + n for n in missing)}"
        )
    return [mapping[n] for n in names]


def _chain_spec(construction: str, opts: dict, tail_budget: float):
    if construction == "direct":
        a, lam = _require(opts, "a", "lam")
        return inar_kernel(InarParams(a=a, lam=lam), tail_budget)
    if construction == "death-poisson":
        lam, a = _require(opts, "lam", "a")
        return poisson_death_chain(lam, a, tail_budget)
    if construction == "death-binomial":
        n, p, a = _require(opts, "n", "p", "a")
        return binomial_death_chain(n, p, a)
    if construction == "indicator":
        p0, a = _require(opts, "p0", "a")
        return indicator_chain_spec(p0, a)
    if construction == "iid":
        (lam,) = _require(opts, "lam")
        return iid_chain(lam, tail_budget)
    raise InvalidParameterError(f"unknown construction {construction!r}")


def _config(construction: str, opts: dict, **extra) -> dict:
    """Echoed configuration: the construction, the parameters given, and extras."""
    params = {k: v for k, v in opts.items() if v is not None}
    return dict(construction=construction, params=params, **extra)


def _require_escape_within(escaped: float, cap: int, max_escape: float) -> None:
    if not escaped <= max_escape:  # a NaN bound refuses rather than admits
        raise ResourceLimitError(
            f"cap {cap} leaves truncated mass {escaped:.3e} above "
            f"--max-escape {max_escape:.3e}; raise --cap"
        )


@contextlib.contextmanager
def _writing_output():
    """Exit 2 with one line when an output path cannot be created or written."""
    try:
        yield
    except OSError as exc:
        click.echo(f"cannot write output: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _write_output(text: str, out: str | None, *, metrics_out=None, start=None, **extra) -> None:
    """Write ``text`` to ``out`` (stdout for None or ``-``) and, given ``metrics_out``, a
    ``--metrics`` sidecar there: wall seconds since ``start`` (the command's ``perf_counter``
    on entry), peak RSS and any ``extra`` keys, none of which enter ``text``."""
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        with _writing_output():
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(text, encoding="utf-8")
    if metrics_out is not None:
        import resource  # loaded only by a run that writes the sidecar

        wall = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        sidecar = {"wall_s": wall, "peak_rss_mb": peak_kib / 1024.0, **extra}
        _write_output(dumps(sidecar), metrics_out)


metrics_option = click.option(
    "--metrics", "metrics_out", default=None,
    help="Also write timings and peak RSS to this JSON file.",
)


param_options = [
    click.option("--a", type=float, default=None, help="Thinning/survival parameter in (0,1)."),
    click.option("--lambda", "lam", type=float, default=None, help="Innovation / start mean."),
    click.option("--p0", type=float, default=None, help="Indicator start probability."),
    click.option("--n", type=int, default=None, help="Binomial start size."),
    click.option("--p", type=float, default=None, help="Binomial start success probability."),
]


def _with_params(fn):
    """Add the chain-parameter options; the command gets them as one ``opts`` dict."""

    @functools.wraps(fn)
    def wrapper(a, lam, p0, n, p, **kwargs):
        return fn(opts={"a": a, "lam": lam, "p0": p0, "n": n, "p": p}, **kwargs)

    for opt in reversed(param_options):
        wrapper = opt(wrapper)
    return wrapper


@click.group()
def main():
    """Exact and Monte Carlo laboratory for thinning-based count chains."""


@main.command()
@click.argument("construction", type=click.Choice(SIM_CONSTRUCTIONS))
@_with_params
@click.option("--length", type=int, required=True)
@click.option("--paths", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--stream", type=int, default=0, show_default=True)
@click.option("--tail-budget", type=float, default=DEFAULT_TAIL_BUDGET, show_default=True)
@click.option(
    "--out",
    envvar="INARLAB_OUT",
    type=click.Path(file_okay=False),
    default=".",
    show_default=True,
    help="Output directory (env INARLAB_OUT).",
)
@_exit_on_errors
def simulate(construction, opts, length, paths, seed, stream, tail_budget, out):
    """Simulate paths; writes x.csv (plus u.csv/v.csv for decomposed builds)."""
    seed_spec = SeedSpec(seed, stream)
    outdir = Path(out)
    prefix = outdir / construction

    if construction == "direct":
        av, lv = _require(opts, "a", "lam")
        ens, dec = simulate_inar_direct(InarParams(a=av, lam=lv), length, paths, seed_spec)
    elif construction == "superposition":
        av, lv = _require(opts, "a", "lam")
        params = InarParams(a=av, lam=lv)
        config = SuperpositionConfig.for_budget(params, tail_budget)
        ens, dec = simulate_inar_superposition(params, config, length, paths, seed_spec)
    elif construction == "indicator":
        p0v, av = _require(opts, "p0", "a")
        ens, dec = indicator_chain(p0v, av, length, paths, seed_spec), None
    else:
        spec = _chain_spec(construction, opts, tail_budget)
        ens, dec = simulate_chain(spec, length, paths, seed_spec), None

    written = [f"{prefix}_x.csv"]
    with _writing_output():  # only a run that simulated creates the directory
        outdir.mkdir(parents=True, exist_ok=True)
        write_ensemble_csv(ens, written[0])
        if dec is not None:
            for name, mat in (("u", dec.u), ("v", dec.v)):
                part = PathEnsemble(mat, seed_spec, dict(ens.params, component=name))
                write_ensemble_csv(part, f"{prefix}_{name}.csv")
                written.append(f"{prefix}_{name}.csv")
    click.echo("\n".join(str(w) for w in written))


@main.command()
@click.argument("construction", type=click.Choice(CHAIN_CONSTRUCTIONS))
@_with_params
@click.option("--n-max", type=int, default=6, show_default=True)
@click.option("--cap", type=int, default=100, show_default=True)
@click.option("--tail-budget", type=float, default=DEFAULT_TAIL_BUDGET, show_default=True)
@click.option("--max-escape", type=float, default=DEFAULT_MAX_ESCAPE, show_default=True,
              help="Largest tolerated truncated mass per entry.")
@click.option("--out", default=None, help="Output file; default stdout.")
@metrics_option
@_exit_on_errors
def rho(construction, opts, n_max, cap, tail_budget, max_escape, out, metrics_out):
    """Past/future maximal correlation across gaps 1..n-max, plus a decay fit."""
    start = time.perf_counter()
    if n_max < 1:
        raise InvalidParameterError("--n-max must be a positive integer")
    spec = _chain_spec(construction, opts, tail_budget)
    entries = []
    gaps = range(1, n_max + 1)
    for gap, (joint, escaped) in zip(gaps, lag_joints(spec, gaps, cap)):
        _require_escape_within(escaped, cap, max_escape)
        entries.append({"n": gap, "rho": maximal_correlation(joint), "escaped": escaped})
    try:
        fit = fit_decay_rate([(e["n"], e["rho"]) for e in entries])
        fit_payload = {"rate": fit.rate, "r_squared": fit.r_squared}
    except InsufficientDataError as exc:
        fit_payload = {"error": str(exc)}
    payload = {
        "config": _config(
            construction, opts, n_max=n_max, cap=cap, tail_budget=tail_budget
        ),
        "entries": entries,
        "fit": fit_payload,
    }
    _write_output(dumps(payload), out, metrics_out=metrics_out, start=start)


@main.command(name="rho-star")
@click.argument("construction", type=click.Choice(CHAIN_CONSTRUCTIONS))
@_with_params
@click.option("--width", "-W", type=int, required=True, help="Window width (maximum 8).")
@click.option("--gap", "-n", "gap", type=int, required=True, help="Minimum separation.")
@click.option("--cap", type=int, default=30, show_default=True)
@click.option("--tail-budget", type=float, default=DEFAULT_TAIL_BUDGET, show_default=True)
@click.option("--max-escape", type=float, default=DEFAULT_MAX_ESCAPE, show_default=True,
              help="Largest tolerated truncated mass of a window law.")
@click.option("--out", default=None)
@metrics_option
@_exit_on_errors
def rho_star(construction, opts, width, gap, cap, tail_budget, max_escape, out, metrics_out):
    """Exact interlaced coefficient over a finite window, with attaining pair."""
    start = time.perf_counter()
    spec = _chain_spec(construction, opts, tail_budget)
    scan = rho_star_window(spec, width, gap, cap)
    _require_escape_within(scan.truncation_error, cap, max_escape)
    payload = {
        "config": _config(construction, opts, width=width, gap=gap, cap=cap),
        "value": scan.value,
        "pair_count": scan.pair_count,
        "vacuous": scan.vacuous,
        "truncation_error": scan.truncation_error,
        "attaining": None
        if scan.best is None
        else {"s": list(scan.best.s), "t": list(scan.best.t)},
    }
    _write_output(dumps(payload), out, metrics_out=metrics_out, start=start)


@main.command()
@click.option("--a", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--delta-bound", "bound_name", type=click.Choice(["identity"]),
              default="identity", show_default=True)
@click.option("--out", default=None)
@_exit_on_errors
def gap(a, epsilon, bound_name, out):
    """Certified separation gap for a target coefficient level."""
    cert = gap_for_epsilon(a, epsilon)
    _write_output(dumps(dict(dataclasses.asdict(cert), delta_bound=bound_name)), out)


@main.command()
@click.argument("construction", type=click.Choice(CHAIN_CONSTRUCTIONS))
@_with_params
@click.option("--at", type=int, required=True, help="Time index of the marginal.")
@click.option("--tail-budget", type=float, default=DEFAULT_TAIL_BUDGET, show_default=True)
@click.option("--out", default=None)
@_exit_on_errors
def marginal(construction, opts, at, tail_budget, out):
    """Exact marginal law at a time index (initial law pushed through the kernel)."""
    spec = _chain_spec(construction, opts, tail_budget)
    law = marginal_at(spec, at)
    payload = {
        "config": _config(construction, opts, at=at, tail_budget=tail_budget),
        "probs": [float(x) for x in law.probs],
        "tail_mass": law.tail_mass,
        "mean": law.mean(),
    }
    _write_output(dumps(payload), out)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=False), default=None,
              help="JSON config file; flags override its values.")
@click.option("--seed", type=int, default=None)
@click.option("--paths", type=int, default=None)
@click.option("--significance", type=float, default=None)
@click.option("--negative-controls/--no-negative-controls", default=None)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--out", default=None, help="Report file; default stdout.")
@metrics_option
@_exit_on_errors
def verify(config_path, seed, paths, significance, negative_controls, threads, out,
           metrics_out):
    """Run the full verification campaign; exit 0 iff every check passes."""
    fields = {}
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # bad JSON, UTF-8 or integer literal
            click.echo(f"malformed config: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        if not isinstance(raw, dict):
            click.echo("malformed config: top level must be a JSON object", err=True)
            sys.exit(EXIT_USAGE)
        fields = dict(raw)
    if seed is not None:
        fields["root_seed"] = seed
    if paths is not None:
        fields["n_paths"] = paths
    if significance is not None:
        fields["significance"] = significance
    if negative_controls is not None:
        fields["negative_controls"] = negative_controls
    try:
        config = McConfig.from_dict(fields)
    except ValueError as exc:
        click.echo(f"malformed config: {exc}", err=True)
        sys.exit(EXIT_USAGE)

    start = time.perf_counter()
    with _job_seconds() as seconds:
        reports = run_all(config, threads=max(1, threads))
    report = reports_to_json(reports, config)
    _write_output(report, out, metrics_out=metrics_out, start=start, job_wall_s=seconds)
    failures = [r for r in reports if not r.passed]
    if failures:
        for r in failures:
            click.echo(f"FAILED: {r.check} [{r.construction}]", err=True)
        sys.exit(EXIT_VERIFICATION_FAILURE)


if __name__ == "__main__":
    main()
