"""The three benchmark workloads: inputs from a seed, one iteration, its checks.

Each workload drives inarlab's public functions in this process, on one
thread of its own.  ``iterate`` is the timed work; ``check`` is not timed
and turns the iteration's output into operations attempted and failed.

* ``campaign``: the default ``inarlab verify`` campaign (59 checks).
* ``exact-scan``: exact window coefficients with no sampling.
* ``simulate-csv``: ``inarlab simulate`` through ``cli.main``, writing CSVs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_inarlab() -> None:
    """Import inarlab from this checkout's ``src/`` and from nowhere else, so an
    installed copy can never stand in for the sources being measured."""
    package = SRC / "inarlab"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no inarlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import inarlab

    if Path(inarlab.__file__).resolve().parent != package.resolve():
        raise ImportError(f"inarlab was imported from {inarlab.__file__}, not {package}")


_import_inarlab()

from inarlab import cli  # noqa: E402
from inarlab.chains import (  # noqa: E402
    InarParams,
    indicator_chain_spec,
    inar_kernel,
    marginal_at,
    poisson_death_chain,
)
from inarlab.dependence import lambda_coefficient  # noqa: E402
from inarlab.harness import McConfig, reports_to_json, run_all  # noqa: E402
from inarlab.mixing import lag_joint, rho_markov, rho_star_window  # noqa: E402
from inarlab.pmf import SeedSpec  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
EXACT_TOL = 1e-12  # the exactness bound a speedup may not exceed


@dataclass
class Verdict:
    """Operations attempted and failed by one iteration, plus what a repeat
    must reproduce byte for byte."""

    attempted: int
    failed: int
    digest: object = None
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# --------------------------------------------------------------------------
# campaign


class Campaign:
    """``run_all`` at the default configuration plus ``reports_to_json``.

    Operations: each of the reports, and the report document itself.  A
    report fails if its check errored, or if it is exact and did not pass;
    Monte Carlo rejections are chance events at the configured
    significance and are only counted.  The document fails if its bytes
    differ from the run's first document.
    """

    name = "campaign"

    def inputs(self, seed: int) -> McConfig:
        return McConfig(seed=SeedSpec(seed))

    def iterate(self, config: McConfig):
        reports = run_all(config, threads=1)
        return reports, reports_to_json(reports, config)

    def check(self, config, output, baseline) -> Verdict:
        if output is None:  # run_all raised: the whole campaign is one failure
            return Verdict(1, 1)
        reports, text = output
        v = Verdict(len(reports) + 1, 0, hashlib.sha256(text.encode()).hexdigest())
        for r in reports:
            if r.check == "errored" or (r.provenance == "exact" and not r.passed):
                v.failed += 1
                v.problems.append(f"{r.check} [{r.construction}]: {r.note or 'failed'}")
        if baseline is not None and v.digest != baseline:
            v.failed += 1
            v.problems.append("report bytes differ from the first iteration")
        v.notes["mc_rejected"] = sum(
            1 for r in reports if r.provenance == "monte-carlo" and not r.passed
        )
        return v


# --------------------------------------------------------------------------
# exact-scan

# The seed picks (a, lambda) from this grid.  Widths, caps and the
# death-chain start mean are fixed, and every kernel row is positive up to
# the cap, so the window supports and hence the cost do not depend on the
# seed.  The start mean 3 keeps all 16 death-chain states below cap 15.
EXACT_GRID = tuple((a, lam) for a in (0.3, 0.5, 0.7) for lam in (0.5, 1.0))
DEATH_START_MEAN = 3.0
INDICATOR_P0 = 0.5
SCANS = {  # name -> (chain, width, gap, cap)
    "rho_star.inar_w5": ("inar", 5, 1, 8),
    "rho_star.death_poisson_w4": ("death-poisson", 4, 1, 15),
    "rho_star.indicator_w8": ("indicator", 8, 1, 1),
}
MARKOV_GAPS = range(1, 7)
MARKOV_CAP = 100
LAMBDA_CAP = 11  # a 12 x 12 joint: the exact-enumeration alphabet limit
MARGINAL_STEPS = 20


def grid_key(a: float, lam: float) -> str:
    return f"a={a},lambda={lam}"


def chain_spec(kind: str, a: float, lam: float):
    if kind == "inar":
        return inar_kernel(InarParams(a=a, lam=lam))
    if kind == "death-poisson":
        return poisson_death_chain(DEATH_START_MEAN, a)
    return indicator_chain_spec(INDICATOR_P0, a)


def exact_scan_values(a: float, lam: float) -> dict:
    """Every exact value of one exact-scan iteration, keyed by item name.

    Chains are rebuilt here, so kernel caches never carry over between
    iterations.
    """
    out = {}
    for name, (kind, width, gap, cap) in SCANS.items():
        scan = rho_star_window(chain_spec(kind, a, lam), width, gap, cap)
        out[name] = {
            "value": scan.value,
            "pair_count": scan.pair_count,
            "truncation_error": scan.truncation_error,
            "attaining": None if scan.best is None else [list(scan.best.s), list(scan.best.t)],
        }
    inar = inar_kernel(InarParams(a=a, lam=lam))
    for n in MARKOV_GAPS:
        out[f"rho_markov.n{n}"] = {"value": rho_markov(inar, n, MARKOV_CAP)}
    joint, _ = lag_joint(poisson_death_chain(DEATH_START_MEAN, a), 1, LAMBDA_CAP)
    out["lambda.death_poisson_12x12"] = {"value": lambda_coefficient(joint)}
    law = marginal_at(inar, MARGINAL_STEPS)
    out["marginal_at.inar_20"] = {
        "probs": [float(p) for p in law.probs],
        "tail_mass": law.tail_mass,
    }
    return out


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= EXACT_TOL


def _mismatch(item: dict, ref: dict) -> str | None:
    """Why an exact-scan item misses its reference, or None if it matches."""
    if "probs" in ref:
        n = max(len(item["probs"]), len(ref["probs"]))
        got = np.zeros(n)
        want = np.zeros(n)
        got[: len(item["probs"])] = item["probs"]
        want[: len(ref["probs"])] = ref["probs"]
        if float(np.abs(got - want).max()) > EXACT_TOL:
            return "probs differ"
        if not _close(item["tail_mass"], ref["tail_mass"]):
            return f"tail_mass {item['tail_mass']!r} != {ref['tail_mass']!r}"
        return None
    if not _close(item["value"], ref["value"]):
        return f"value {item['value']!r} != {ref['value']!r}"
    if "pair_count" in ref:
        if item["pair_count"] != ref["pair_count"]:
            return f"pair_count {item['pair_count']} != {ref['pair_count']}"
        if not _close(item["truncation_error"], ref["truncation_error"]):
            return f"truncation_error {item['truncation_error']!r} != {ref['truncation_error']!r}"
        # Any pair within the tolerance of the supremum may attain it.
        if item["attaining"] not in ref["attaining"]:
            return f"attaining pair {item['attaining']} not among the reference pairs"
    return None


class ExactScan:
    """Exact coefficients against references recorded by ``record_references.py``.

    Operations: one per item; an item fails if its value, pair count,
    attaining pair or truncation error misses the reference by more than
    ``EXACT_TOL``.
    """

    name = "exact-scan"
    references_path = HERE / "references.json"

    def inputs(self, seed: int):
        a, lam = EXACT_GRID[seed % len(EXACT_GRID)]
        refs = json.loads(self.references_path.read_text(encoding="utf-8"))
        return a, lam, refs[grid_key(a, lam)]

    def iterate(self, inputs):
        a, lam, _ = inputs
        return exact_scan_values(a, lam)

    def check(self, inputs, output, baseline) -> Verdict:
        refs = inputs[2]
        if output is None:
            return Verdict(len(refs), len(refs))
        v = Verdict(len(refs), 0)
        for name, ref in refs.items():
            why = _mismatch(output[name], ref) if name in output else "missing"
            if why is not None:
                v.failed += 1
                v.problems.append(f"{name}: {why}")
        return v


# --------------------------------------------------------------------------
# simulate-csv

SIM_LENGTH = 200
SIM_PATHS = 20_000
SIM_A = 0.5
SIM_LAMBDA = 1.0  # stationary mean 2; superposition warm-up 41 for length 200
SIM_DEATH_START = 2.0
# construction -> (parameter flags, components written)
SIMULATIONS = {
    "direct": (["--a", str(SIM_A), "--lambda", str(SIM_LAMBDA)], ("x", "u", "v")),
    "superposition": (["--a", str(SIM_A), "--lambda", str(SIM_LAMBDA)], ("x", "u", "v")),
    "death-poisson": (["--lambda", str(SIM_DEATH_START), "--a", str(SIM_A)], ("x",)),
    "indicator": (["--p0", str(INDICATOR_P0), "--a", str(SIM_A)], ("x",)),
}
MEAN_Z = 6.0  # standard errors; a chance miss has probability about 2e-9


def _csv_rows(path: Path, chunk: int = 2000):
    """Metadata lines, header, then the path matrix in blocks of rows."""
    with open(path, encoding="utf-8") as fh:
        meta = [next(fh) for _ in range(4)]
        header = next(fh)
        yield meta, header
        while True:
            lines = list(itertools.islice(fh, chunk))
            if not lines:
                return
            block = np.fromstring("".join(lines).replace("\n", ","), dtype=np.int64, sep=",")
            yield block.reshape(len(lines), -1)


def _check_csvs(outdir: Path, construction: str, parts, paths: int, length: int) -> list[str]:
    """Shape, range and law-level checks of one construction's CSV files.

    Files are streamed in blocks so the check adds little to peak RSS.
    """
    problems = []
    readers = [_csv_rows(outdir / f"{construction}_{p}.csv") for p in parts]
    heads = [next(r) for r in readers]
    for (meta, header), part in zip(heads, parts):
        if meta[3].strip() != f"# n_paths={paths} length={length}":
            problems.append(f"{construction}_{part}: metadata {meta[3].strip()!r}")
        if header.strip() != ",".join(f"t{k}" for k in range(length)):
            problems.append(f"{construction}_{part}: bad header")
    rows = 0
    first_col = 0.0
    for blocks in zip(*readers):
        x = blocks[0]
        if x.shape[1] != length or any(b.shape != x.shape for b in blocks):
            return problems + [f"{construction}: ragged rows"]
        if x.min() < 0:
            problems.append(f"{construction}: negative counts")
        if len(blocks) == 3 and not np.array_equal(x, blocks[1] + blocks[2]):
            problems.append(f"{construction}: x != u + v")
        if construction in ("death-poisson", "indicator") and np.any(np.diff(x, axis=1) > 0):
            problems.append(f"{construction}: a path increases")
        if construction == "indicator" and x.max() > 1:
            problems.append("indicator: non-binary state")
        rows += x.shape[0]
        first_col += float(x[:, 0].sum())
    if rows != paths:
        problems.append(f"{construction}: {rows} rows, expected {paths}")
        return problems
    # The first column is drawn from the start law: Poisson, or Bernoulli
    # for the indicator chain.
    want = {
        "direct": SIM_LAMBDA / (1.0 - SIM_A),
        "superposition": SIM_LAMBDA / (1.0 - SIM_A),
        "death-poisson": SIM_DEATH_START,
        "indicator": INDICATOR_P0,
    }[construction]
    variance = want * (1.0 - want) if construction == "indicator" else want
    mean = first_col / rows
    if abs(mean - want) > MEAN_Z * math.sqrt(variance / rows):
        problems.append(f"{construction}: start mean {mean:.4f}, law says {want:.4f}")
    return list(dict.fromkeys(problems))


class SimulateCsv:
    """``inarlab simulate`` for four constructions through ``cli.main``.

    Operations: one per invocation.  An invocation fails if it raised or
    exited non-zero, if a repeat's CSV bytes differ from the run's first
    iteration, or (first iteration) if its files fail the shape and law
    checks.  Outputs are deleted after every iteration so files never
    accumulate.
    """

    name = "simulate-csv"

    def __init__(self, paths: int = SIM_PATHS, length: int = SIM_LENGTH, out_dir: Path = OUT_DIR):
        self.paths = paths
        self.length = length
        self.outdir = out_dir / "simulate-csv"

    def inputs(self, seed: int):
        common = ["--length", str(self.length), "--paths", str(self.paths),
                  "--seed", str(seed), "--out", str(self.outdir)]
        return {
            c: ["simulate", c, *flags, *common] for c, (flags, _) in SIMULATIONS.items()
        }

    def iterate(self, argv_by_construction):
        shutil.rmtree(self.outdir, ignore_errors=True)
        codes = {}
        for construction, argv in argv_by_construction.items():
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main(argv, standalone_mode=False)
                    codes[construction] = 0
                except SystemExit as exc:
                    codes[construction] = exc.code or 0
        return codes

    def check(self, inputs, output, baseline) -> Verdict:
        try:
            return self._check(output, baseline)
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)

    def _check(self, codes, baseline) -> Verdict:
        n = len(SIMULATIONS)
        if codes is None:
            return Verdict(n, n)
        v = Verdict(n, 0, {})
        for construction, (_, parts) in SIMULATIONS.items():
            problems = []
            if codes.get(construction) != 0:
                problems.append(f"{construction}: exit code {codes.get(construction)}")
            else:
                files = [self.outdir / f"{construction}_{p}.csv" for p in parts]
                missing = [f.name for f in files if not f.is_file()]
                if missing:
                    problems.append(f"{construction}: missing {missing}")
                else:
                    for f in files:
                        v.digest[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
                    if baseline is None:
                        problems += _check_csvs(self.outdir, construction, parts,
                                                self.paths, self.length)
                    elif any(v.digest[f.name] != baseline.get(f.name) for f in files):
                        problems.append(f"{construction}: CSV bytes differ from the first iteration")
            if problems:
                v.failed += 1
                v.problems += problems
        return v


WORKLOADS = {w.name: w for w in (Campaign(), ExactScan(), SimulateCsv())}
