"""End-to-end tests of the command-line interface."""

import json
import math
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, event, given, settings, strategies as st

from inarlab import SeedSpec, binomial_death_chain, chains, cli, harness, poisson_death_chain
from inarlab.chains import PathEnsemble
from inarlab.cli import CHAIN_CONSTRUCTIONS, SIM_CONSTRUCTIONS, main
from inarlab.serialize import dumps

from .test_chains import _chain_reference, _reference_csv


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestSimulate:
    def test_shape_contract(self, runner, tmp_path):
        res = run(
            runner, "simulate", "direct", "--a", 0.5, "--lambda", 1, "--length", 100,
            "--paths", 1000, "--seed", 7, "--out", tmp_path,
        )
        assert res.exit_code == 0
        lines = (tmp_path / "direct_x.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert len(meta) == 4
        rows = lines[len(meta) + 1 :]
        assert len(rows) == 1000
        assert all(len(r.split(",")) == 100 for r in rows[:5])
        assert (tmp_path / "direct_u.csv").exists()
        assert (tmp_path / "direct_v.csv").exists()

    def test_identical_invocations_identical_files(self, runner, tmp_path):
        for sub in ("one", "two"):
            d = tmp_path / sub
            run(
                runner, "simulate", "superposition", "--a", 0.4, "--lambda", 0.8,
                "--length", 10, "--paths", 50, "--seed", 3, "--out", d,
            )
        assert (tmp_path / "one" / "superposition_x.csv").read_bytes() == (
            tmp_path / "two" / "superposition_x.csv"
        ).read_bytes()

    def test_invalid_parameter_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "direct", "--a", "1.5", "--lambda", "1", "--length", "5",
             "--paths", "5", "--out", str(tmp_path)],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "message, shown",
        [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
         ("", "out of memory")],
    )
    def test_out_of_memory_exits_3(self, runner, tmp_path, monkeypatch, message, shown):
        # stands in for an allocation failure on a huge --length x --paths
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "simulate_inar_direct", exhausted)
        res = runner.invoke(
            main,
            ["simulate", "direct", "--a", "0.5", "--lambda", "1", "--length", "5",
             "--paths", "5", "--out", str(tmp_path)],
        )
        assert res.exit_code == 3
        assert res.stderr == f"resource limit: {shown}\n"

    @pytest.mark.parametrize("construction", SIM_CONSTRUCTIONS)
    def test_run_larger_than_memory_exits_3(self, runner, tmp_path, monkeypatch, construction):
        monkeypatch.setattr(chains, "_physical_memory", lambda: 100)
        out = tmp_path / "never"
        res = runner.invoke(
            main,
            ["simulate", construction, "--a", "0.5", "--lambda", "1", "--p0", "0.5",
             "--n", "3", "--p", "0.5", "--length", "5", "--paths", "5", "--out", str(out)],
        )
        assert res.exit_code == 3
        assert res.stderr.startswith("resource limit: 5 paths of length 5 need about")
        assert res.stderr.count("\n") == 1
        assert not out.exists()

    def test_refused_run_creates_no_directory(self, runner, tmp_path):
        out = tmp_path / "never"
        res = runner.invoke(
            main,
            ["simulate", "direct", "--a", "0.5", "--lambda", "1", "--length", "0",
             "--paths", "3", "--out", str(out)],
        )
        assert res.exit_code == 2
        assert not out.exists()

    def test_unknown_construction_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "nonsense", "--length", "5", "--paths", "5",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 2

    def test_missing_required_parameter_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "indicator", "--a", "0.5", "--length", "5", "--paths", "5",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 2

    def test_death_chains_and_indicator(self, runner, tmp_path):
        for args in (
            ("death-poisson", "--lambda", 1.0, "--a", 0.5),
            ("death-binomial", "--n", 4, "--p", 0.5, "--a", 0.5),
            ("indicator", "--p0", 0.7, "--a", 0.5),
        ):
            res = run(
                runner, "simulate", *args, "--length", 6, "--paths", 20,
                "--out", tmp_path,
            )
            assert res.exit_code == 0

    @pytest.mark.parametrize(
        "construction, flags, spec",
        [
            ("death-poisson", ["--lambda", 3.0, "--a", 0.6], poisson_death_chain(3.0, 0.6, 1e-12)),
            ("death-binomial", ["--n", 12, "--p", 0.7, "--a", 0.8],
             binomial_death_chain(12, 0.7, 0.8)),
        ],
    )
    def test_death_chain_csvs_equal_the_reference_writer(self, runner, tmp_path, construction,
                                                        flags, spec):
        length, n_paths, seed = 15, 400, SeedSpec(5, 2)
        res = run(
            runner, "simulate", construction, *flags, "--length", length, "--paths", n_paths,
            "--seed", 5, "--stream", 2, "--out", tmp_path,
        )
        assert res.exit_code == 0
        paths = _chain_reference(spec, length, n_paths, seed)
        ens = PathEnsemble(paths, seed, dict(spec.description, length=length, n_paths=n_paths))
        _reference_csv(ens, tmp_path / "reference.csv")
        written = (tmp_path / f"{construction}_x.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize(
        "construction, a, lam",
        [("direct", 0.9, 1e18), ("direct", 0.5, 1e300), ("superposition", 0.9, 1e18)],
    )
    def test_means_too_large_for_int64_counts_exit_2(self, runner, tmp_path, construction, a, lam):
        res = runner.invoke(
            main,
            ["simulate", construction, "--a", str(a), "--lambda", str(lam), "--length", "3",
             "--paths", "2", "--out", str(tmp_path)],
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("invalid parameters: stationary mean")
        assert "too large for int64" in res.stderr

    @pytest.mark.parametrize("budget, depth", [("1e-15", 51), ("1e-20", 68), ("5e-324", 1075)])
    def test_superposition_honors_any_tail_budget(self, runner, tmp_path, budget, depth):
        res = run(
            runner, "simulate", "superposition", "--a", 0.5, "--lambda", 1, "--length", 3,
            "--paths", 4, "--tail-budget", budget, "--out", tmp_path,
        )
        assert res.exit_code == 0
        for c in "xuv":
            params = (tmp_path / f"superposition_{c}.csv").read_text().splitlines()[1]
            assert json.loads(params.removeprefix("# params="))["depth"] == depth

    def test_superposition_over_its_generation_budget_exits_3_at_once(self, runner, tmp_path):
        """About 4e7 generations at a = 0.999999: minutes of drawing if admitted."""
        out = tmp_path / "never"
        start = time.perf_counter()
        res = runner.invoke(
            main,
            ["simulate", "superposition", "--a", "0.999999", "--lambda", "1", "--length", "2",
             "--paths", "1", "--out", str(out)],
        )
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 3
        assert res.stderr.startswith("resource limit: depth 41446511 and length 2 over 1 paths")
        assert res.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("construction", ["direct", "superposition"])
    def test_large_means_within_int64_still_simulate(self, runner, tmp_path, construction):
        res = run(
            runner, "simulate", construction, "--a", 0.5, "--lambda", 1e15, "--length", 4,
            "--paths", 3, "--out", tmp_path,
        )
        assert res.exit_code == 0
        x, u, v = (_read_csv(tmp_path / f"{construction}_{c}.csv") for c in "xuv")
        assert np.array_equal(x, u + v)
        assert abs(x.mean() / 2e15 - 1.0) < 1e-3


def _read_csv(path) -> np.ndarray:
    """The data rows of a ``simulate`` CSV: 4 metadata lines, then a header row."""
    return np.loadtxt(path, delimiter=",", skiprows=5, dtype=np.int64, ndmin=2)


# Each flag mixes ordinary and extreme values with bad ones, and is sometimes
# left out.  Strings that are not integers exercise click's own refusal of
# the integer options.
BAD = ["nan", "inf", "-inf", "0", "-1", "1e300"]
# --a stays at or below 0.999: the superposition draws about
# log(budget) / log(a) generations and is refused past its budget of 10^8
# work units (some 6 s).  At a = 0.999 a --tail-budget of 1e-300 (about 7e5
# generations, 1.4e8 units) is refused at once, and the admitted runs draw
# for about a second at most.
A_VALUES = ["1e-300", "0.3", "0.9", "0.999"]
LAMBDA_VALUES = ["1e-300", "0.5", "3", "1e15", "1e18"]
PROB_VALUES = ["1e-300", "0.5", "1"]
N_VALUES = ["1", "4", str(10**30)]
BUDGET_VALUES = ["1e-300", "1e-12", "0.5"]
SIZE_VALUES = ["1", "3", "17"]


def _flag(name, values):
    """Mostly one of ``values``, sometimes a bad value, rarely absent."""
    pool = [None] + BAD + values * (24 // len(values))
    return st.sampled_from(pool).map(lambda v: [] if v is None else [name, v])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    construction=st.sampled_from(SIM_CONSTRUCTIONS),
    flags=st.tuples(
        _flag("--a", A_VALUES),
        _flag("--lambda", LAMBDA_VALUES),
        _flag("--p0", PROB_VALUES),
        _flag("--n", N_VALUES),
        _flag("--p", PROB_VALUES),
        _flag("--tail-budget", BUDGET_VALUES),
        _flag("--length", SIZE_VALUES),
        _flag("--paths", SIZE_VALUES),
    ),
)
def test_simulate_flags_fuzz(tmp_path_factory, construction, flags):
    """Any flags give exit 0, 2 or 3 and no traceback; exit-0 CSVs satisfy x = u + v."""
    out = tmp_path_factory.mktemp("fuzz")
    opts = dict(f for f in flags if f)
    args = ["simulate", construction, *sum(opts.items(), ()), "--out", str(out)]
    res = CliRunner().invoke(main, args)
    event(f"{construction} exit {res.exit_code}")
    assert res.exit_code in (0, 2, 3), (args, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), args
    assert "Traceback" not in res.stderr
    if res.exit_code == 0:
        x = _read_csv(out / f"{construction}_x.csv")
        assert x.shape == (int(opts["--paths"]), int(opts["--length"]))
        if construction in ("direct", "superposition"):
            u, v = (_read_csv(out / f"{construction}_{c}.csv") for c in "uv")
            assert np.array_equal(x, u + v)


# Flags of the exact commands.  Every value is refused before anything is
# allocated or runs in milliseconds:
# - --cap skips 100..1413: caps past 1413 are refused, but a lag law at cap
#   1413 takes a power of the 1414 x 1414 kernel table per gap, up to about
#   a second each (the table itself takes a fifth of a second);
# - -W is 1, 3 or the refused 9: at the default cap 30, width 4 already
#   builds window laws of 31**4 cells;
# - --n-max stays small: each gap is one matrix power and one SVD;
# - --tail-budget leaves out tiny values: poisson_pmf searches tables up to
#   a million states before refusing a budget it cannot reach;
# - marginal's --a and --lambda keep the stationary mean at most 30, since
#   its table is sized by the chain's state cap;
# - --n stays small or past the 2**21 table limit.
EXACT_FLAGS = (
    _flag("--a", ["1e-300", "0.3", "0.9"]),
    _flag("--lambda", ["1e-300", "0.5", "3", "1e15"]),
    _flag("--p0", PROB_VALUES),
    _flag("--n", N_VALUES),
    _flag("--p", PROB_VALUES),
    _flag("--tail-budget", ["1e-12", "0.5"]),
)
COMMAND_FLAGS = {
    "rho": (
        _flag("--n-max", ["1", "3", "7"]),
        _flag("--cap", ["1", "12", "40", "100000"]),
        _flag("--max-escape", ["1e-9", "1"]),
    ),
    "rho-star": (
        _flag("-W", ["1", "3", "9"]),
        _flag("-n", ["1", "2", "5"]),
        _flag("--cap", ["1", "3", "100000"]),
        _flag("--max-escape", ["1e-9", "1"]),
    ),
    "marginal": (_flag("--at", ["1", "5", "100000000"]),),
}


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(COMMAND_FLAGS)),
    construction=st.sampled_from(CHAIN_CONSTRUCTIONS),
    data=st.data(),
)
def test_exact_command_flags_fuzz(command, construction, data):
    """Any flags give exit 0, 2 or 3 with no traceback; exit 0 prints JSON."""
    flags = data.draw(st.tuples(*EXACT_FLAGS, *COMMAND_FLAGS[command]))
    args = [command, construction, *sum((f for f in flags if f), [])]
    res = CliRunner().invoke(main, args)
    event(f"{command} exit {res.exit_code}")
    assert res.exit_code in (0, 2, 3), (args, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), args
    assert "Traceback" not in res.stderr
    if res.exit_code == 0:
        assert isinstance(json.loads(res.stdout), dict)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    flags=st.tuples(
        _flag("--a", ["1e-300", "0.5", "0.9999999999999999"]),
        _flag("--epsilon", ["5e-324", "1e-160", "1e-150", "0.3", "1"]),
        _flag("--delta-bound", ["identity", "bogus"]),
    )
)
def test_gap_flags_fuzz(flags):
    args = ["gap", *sum((f for f in flags if f), [])]
    res = CliRunner().invoke(main, args)
    event(f"gap exit {res.exit_code}")
    assert res.exit_code in (0, 2), (args, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), args
    assert "Traceback" not in res.stderr


class TestRho:
    def test_inar_fit_recovers_thinning_rate(self, runner, tmp_path):
        out = tmp_path / "rho.json"
        res = run(
            runner, "rho", "direct", "--a", 0.5, "--lambda", 1, "--n-max", 6,
            "--cap", 80, "--out", out,
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["fit"]["rate"] - 0.5) <= 0.01
        assert all("escaped" in e for e in payload["entries"])

    def test_iid_is_numerically_zero(self, runner, tmp_path):
        out = tmp_path / "rho.json"
        res = run(
            runner, "rho", "iid", "--lambda", 1, "--n-max", 4, "--cap", 30,
            "--out", out,
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert all(e["rho"] <= 1e-10 for e in payload["entries"])
        assert "error" in payload["fit"]

    def test_cap_too_small_exits_3(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["rho", "direct", "--a", "0.7", "--lambda", "2", "--n-max", "2",
             "--cap", "5", "--out", str(tmp_path / "rho.json")],
        )
        assert res.exit_code == 3

    def test_cap_beyond_the_table_limit_exits_3(self, runner):
        res = runner.invoke(
            main, ["rho", "direct", "--a", "0.5", "--lambda", "1", "--cap", "100000"]
        )
        assert res.exit_code == 3
        assert res.stderr == (
            "resource limit: lag joint could hold up to 10000200001 atoms "
            "(limit 2000000); shrink the cap\n"
        )

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_n_max_below_one_exits_2(self, runner, n_max):
        res = runner.invoke(
            main, ["rho", "direct", "--a", "0.5", "--lambda", "1", "--n-max", n_max]
        )
        assert res.exit_code == 2
        assert res.stderr == "invalid parameters: --n-max must be a positive integer\n"

    def test_subnormal_marginal_products_do_not_break_the_svd(self, runner):
        res = run(
            runner, "rho", "death-binomial", "--n", 60, "--p", 0.999999,
            "--a", 0.001, "--n-max", 1, "--cap", 60,
        )
        assert res.exit_code == 0
        assert 0.0 <= json.loads(res.output)["entries"][0]["rho"] <= 1.0

    def test_inconsistent_svd_exits_3(self, runner, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", lambda q, compute_uv: np.array([0.5, 0.25]))
        res = runner.invoke(
            main, ["rho", "direct", "--a", "0.5", "--lambda", "1", "--n-max", "1",
                   "--cap", "20"],
        )
        assert res.exit_code == 3
        assert res.stderr.startswith("numerical error: leading singular value")
        assert res.stderr.count("\n") == 1


class TestRhoStar:
    def test_too_wide_window_exits_3_before_any_law(self, runner, monkeypatch):
        from inarlab import mixing

        built = []
        monkeypatch.setattr(mixing, "window_joint_pmf", lambda *args: built.append(args))
        res = runner.invoke(
            main, ["rho-star", "direct", "--a", "0.9", "--lambda", "0.5", "-W", "5", "-n", "1"]
        )
        assert res.exit_code == 3
        assert res.stderr == (
            "resource limit: window law could hold up to 28629151 atoms "
            "(limit 2000000); shrink the window or the cap\n"
        )
        assert built == []

    def test_vacuous_gap_flagged(self, runner, tmp_path):
        out = tmp_path / "rs.json"
        res = run(
            runner, "rho-star", "indicator", "--p0", 0.5, "--a", 0.5,
            "-W", 3, "-n", 5, "--out", out,
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["vacuous"] is True
        assert payload["value"] == 0 and payload["pair_count"] == 0

    def test_pair_count_for_width_two(self, runner, tmp_path):
        out = tmp_path / "rs.json"
        run(
            runner, "rho-star", "death-poisson", "--lambda", 1, "--a", 0.5,
            "-W", 2, "-n", 1, "--cap", 25, "--out", out,
        )
        payload = json.loads(out.read_text())
        assert payload["pair_count"] == 1
        assert payload["attaining"] == {"s": [0], "t": [1]}

    def test_tiny_start_probability_keeps_the_value(self, runner):
        values = []
        for p0 in ("1e-100", "1e-160", "1e-300"):
            res = run(
                runner, "rho-star", "indicator", "--p0", p0, "--a", 0.5,
                "-W", 3, "-n", 1, "--cap", 1,
            )
            assert res.exit_code == 0
            values.append(json.loads(res.output)["value"])
        assert max(values) - min(values) <= 1e-12

    def test_too_wide_window_exits_3(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["rho-star", "indicator", "--p0", "0.5", "--a", "0.5", "-W", "9",
             "-n", "1"],
        )
        assert res.exit_code == 3

    def test_truncation_above_max_escape_exits_3(self, runner):
        args = ["rho-star", "direct", "--a", "0.5", "--lambda", "3", "-W", "3", "-n", "1",
                "--cap", "3"]
        res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert res.stderr.startswith("resource limit: cap 3 leaves truncated mass")
        assert "--max-escape 1.000e-09" in res.stderr
        res = run(runner, *args, "--max-escape", 1.0)
        assert res.exit_code == 0
        assert json.loads(res.output)["truncation_error"] > 0.9
        assert runner.invoke(main, [*args, "--max-escape", "nan"]).exit_code == 3


class TestHugeMeans:
    @pytest.mark.parametrize(
        "args",
        [
            ["rho", "direct", "--a", "0.5", "--lambda", "1e300", "--n-max", "1", "--cap", "5"],
            ["marginal", "direct", "--a", "0.5", "--lambda", "1e300", "--at", "1"],
            ["marginal", "death-poisson", "--a", "0.5", "--lambda", "4e6", "--at", "0"],
        ],
    )
    def test_poisson_tables_beyond_the_limit_exit_2(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.stderr.startswith("invalid parameters: mean")

    @pytest.mark.parametrize(
        "args",
        [
            ["rho", "death-poisson", "--lambda", "3000", "--a", "0.5", "--cap", "5"],
            ["rho-star", "death-binomial", "--n", "1000", "--p", "0.9999999999999999",
             "--a", "0.5", "-W", "2", "-n", "1", "--cap", "1"],
        ],
        ids=["rho", "rho-star"],
    )
    def test_cap_that_keeps_no_mass_exits_3(self, runner, args):
        # every state up to the cap underflows to probability 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, args)
        assert caught == []
        assert res.exit_code == 3
        assert res.stderr == (
            f"resource limit: cap {args[-1]} keeps none of the mass; raise the cap\n"
        )


class TestGap:
    def test_certificate_values(self, runner):
        res = run(runner, "gap", "--a", 0.5, "--epsilon", 1.0)
        assert json.loads(res.output)["m"] == 4
        res = run(runner, "gap", "--a", 0.5, "--epsilon", 0.3)
        assert json.loads(res.output)["m"] == 7
        res = run(runner, "gap", "--a", 0.9, "--epsilon", 0.3)
        assert json.loads(res.output)["m"] == 44

    def test_unknown_bound_exits_2(self, runner):
        res = runner.invoke(
            main, ["gap", "--a", "0.5", "--epsilon", "0.5", "--delta-bound", "bogus"]
        )
        assert res.exit_code == 2


class TestMarginal:
    def test_poisson_death_marginal(self, runner):
        res = run(
            runner, "marginal", "death-poisson", "--lambda", 2, "--a", 0.5, "--at", 3
        )
        payload = json.loads(res.output)
        assert abs(payload["mean"] - 0.25) <= 1e-9

    def test_far_index_takes_matrix_powers(self, runner):
        res = run(
            runner, "marginal", "direct", "--a", 0.5, "--lambda", 1, "--at", 100_000_000
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        # each step leaks the mass above the cap into the tail, and it is reported
        assert abs(sum(payload["probs"]) + payload["tail_mass"] - 1.0) <= 1e-12
        assert 0.0 < payload["tail_mass"] <= 1e-3
        assert abs(payload["mean"] - 2.0) <= 1e-3


class TestVerify:
    CONFIG = {
        "n_paths": 10_000,
        "path_length": 12,
        "a_grid": [0.5],
        "lambda_grid": [1.0],
    }

    def write_config(self, tmp_path, **overrides):
        cfg = dict(self.CONFIG, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_small_campaign_passes_and_is_deterministic(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            res = run(runner, "verify", "--config", cfg, "--out", tmp_path / name)
            assert res.exit_code == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_negative_controls_exit_1_with_named_failures(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, n_paths=100_000, negative_controls=True)
        out = tmp_path / "rep.json"
        res = runner.invoke(
            main, ["verify", "--config", str(cfg), "--out", str(out)]
        )
        assert res.exit_code == 1
        assert "FAILED" in res.output
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is False
        failing = [c["check"] for c in payload["checks"] if not c["pass"]]
        assert failing and all(name.endswith("-control") for name in failing)

    def test_metrics_sidecar_leaves_the_report_bytes_alone(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        plain = tmp_path / "plain.json"
        assert run(runner, "verify", "--config", cfg, "--out", plain).exit_code == 0
        for threads in (1, 2):
            out, metrics = tmp_path / f"r{threads}.json", tmp_path / f"m{threads}.json"
            res = run(runner, "verify", "--config", cfg, "--out", out, "--metrics", metrics,
                      "--threads", threads)
            assert res.exit_code == 0
            assert out.read_bytes() == plain.read_bytes()
            sidecar = json.loads(metrics.read_text())
            assert sorted(sidecar) == ["job_wall_s", "peak_rss_mb", "wall_s"]
            assert sorted(sidecar["job_wall_s"]) == [
                "direct-mc[0.5,1.0]", "equivalence[0.5,1.0]", "lemma-checks",
                "markov-triplets[0.5,1.0]", "stationary-exact[0.5,1.0]",
            ]
            assert 0.0 < max(sidecar["job_wall_s"].values()) <= sidecar["wall_s"]
            assert sidecar["peak_rss_mb"] > 1.0

    def test_seed_override_is_reflected(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "rep.json"
        res = run(runner, "verify", "--config", cfg, "--seed", 999, "--out", out)
        assert res.exit_code == 0
        assert json.loads(out.read_text())["config"]["root_seed"] == 999

    def test_malformed_config_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not_a_key": 1}')
        assert runner.invoke(main, ["verify", "--config", str(bad)]).exit_code == 2
        bad.write_text("{broken json")
        assert runner.invoke(main, ["verify", "--config", str(bad)]).exit_code == 2
        low = tmp_path / "low.json"
        low.write_text('{"n_paths": 100}')
        assert runner.invoke(main, ["verify", "--config", str(low)]).exit_code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"a_grid": [1.5]}',
            '{"root_seed": "abc"}',
            '{"a_grid": "ab"}',
            '[["n_paths", 1]]',
            "3",
            "null",
            '{"path_length": 2.5}',
            '{"n_paths": 10000.5}',
            '{"negative_controls": "no"}',
            '{"root_seed": 2.5}',
            '{"stream_index": 1.7}',
            '{"root_seed": true}',
            '{"a_grid": []}',
            '{"lambda_grid": []}',
            '{"lambda_grid": [1' + "0" * 400 + "]}",
            '{"n_paths": 1' + "0" * 5000 + "}",
        ],
    )
    def test_invalid_config_values_exit_2(self, runner, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        res = runner.invoke(main, ["verify", "--config", str(bad)])
        assert res.exit_code == 2
        assert res.stderr.startswith("malformed config:")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lambda_grid", [True]),
            ("a_grid", [[0.5]]),
            ("a_grid", 5),
            ("significance", "0.1"),
            ("truncation_budget", None),
        ],
    )
    def test_non_numbers_exit_2_naming_the_key(self, runner, tmp_path, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: value}))
        res = runner.invoke(main, ["verify", "--config", str(bad)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"malformed config: {key} must be ")
        assert res.stderr.count("\n") == 1

    def test_config_that_is_not_utf8_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"a_grid": "\xff"}')
        res = runner.invoke(main, ["verify", "--config", str(bad)])
        assert res.exit_code == 2
        assert res.stderr.startswith("malformed config:")

    def test_paths_beyond_memory_exit_3_before_any_check(self, runner, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_lemma_checks", lambda: ran.append(1) or [])
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"n_paths": 10**12}))
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["verify", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 3
        assert res.stderr.startswith(
            "resource limit: 1000000000000 paths of length 32 need about"
        )
        assert res.stderr.count("\n") == 1
        assert ran == [] and not out.exists()


# Any JSON value: nested lists and objects, strings, booleans, nulls, and
# huge, tiny and non-finite numbers (json writes them as NaN and Infinity).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64), 10**400, 0, 1, 2, 10_000])
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _real_in(v, lo, hi):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return lo < float(v) < hi
    except OverflowError:  # an int past the float range
        return False


def _grid_in(v, lo, hi):
    return isinstance(v, list) and bool(v) and all(_real_in(x, lo, hi) for x in v)


# What the config accepts, key by key, written out independently of McConfig.
CONFIG_ACCEPTS = {
    "n_paths": lambda v: _int(v) and v >= 10_000,
    "path_length": lambda v: _int(v) and v >= 2,
    "root_seed": lambda v: _int(v) and 0 <= v < 2**64,
    "stream_index": lambda v: _int(v) and v >= 0,
    "significance": lambda v: _real_in(v, 0.0, 1.0),
    "truncation_budget": lambda v: _real_in(v, 0.0, 1.0),
    "a_grid": lambda v: _grid_in(v, 0.0, 1.0),
    "lambda_grid": lambda v: _grid_in(v, 0.0, math.inf),
    "negative_controls": lambda v: isinstance(v, bool),
}


def _config_accepted(config) -> bool:
    return isinstance(config, dict) and all(
        key in CONFIG_ACCEPTS and CONFIG_ACCEPTS[key](value) for key, value in config.items()
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    config=JSON_VALUES
    | st.dictionaries(
        st.sampled_from(sorted(CONFIG_ACCEPTS)) | st.text(max_size=6),
        JSON_VALUES | st.sampled_from([0.5, [0.5], [1.0], 10_000, 12, 7, True]),
        max_size=4,
    )
)
def test_verify_config_fuzz(tmp_path_factory, config):
    """A config refused by validation exits 2 with one line and no traceback."""
    assume(not _config_accepted(config))
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    res = CliRunner().invoke(main, ["verify", "--config", str(path)])
    event(f"top level {type(config).__name__}")
    assert res.exit_code == 2, (config, res.exception)
    assert isinstance(res.exception, SystemExit), config
    assert res.stderr.startswith("malformed config: ")
    assert res.stderr.count("\n") == 1, res.stderr
    named = [*config, "unknown keys"] if isinstance(config, dict) else ["top level"]
    assert any(name in res.stderr for name in named), (config, res.stderr)


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "direct", "--a", "0.5", "--lambda", "1", "--length", "3",
         "--paths", "3"],
        ["rho", "direct", "--a", "0.5", "--lambda", "1", "--n-max", "2", "--cap", "20"],
        ["rho-star", "indicator", "--p0", "0.5", "--a", "0.5", "-W", "3", "-n", "1",
         "--cap", "1"],
        ["gap", "--a", "0.5", "--epsilon", "0.3"],
        ["marginal", "direct", "--a", "0.5", "--lambda", "1", "--at", "2"],
        ["verify", "--config"],
    ],
    ids=lambda args: args[0],
)
def test_unwritable_out_exits_2(runner, tmp_path, args):
    if args[0] == "verify":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TestVerify.CONFIG))
        args = args + [str(config)]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    _assert_cannot_write(runner.invoke(main, args + ["--out", str(blocker / "out")]))


@pytest.mark.parametrize(
    "args",
    [
        ["rho", "direct", "--a", "0.5", "--lambda", "1", "--n-max", "3", "--cap", "30"],
        ["rho-star", "indicator", "--p0", "0.5", "--a", "0.5", "-W", "4", "-n", "1"],
    ],
    ids=["rho", "rho-star"],
)
def test_exact_metrics_sidecar_leaves_the_output_bytes_alone(runner, tmp_path, args):
    plain, out, metrics = (tmp_path / name for name in ("plain.json", "out.json", "m.json"))
    stdout = run(runner, *args).stdout
    assert json.loads(stdout)["config"]
    assert run(runner, *args, "--metrics", metrics).stdout == stdout
    run(runner, *args, "--out", plain)
    run(runner, *args, "--out", out, "--metrics", metrics)
    assert out.read_bytes() == plain.read_bytes() == stdout.encode()
    sidecar = json.loads(metrics.read_text())
    assert sorted(sidecar) == ["peak_rss_mb", "wall_s"]
    assert sidecar["wall_s"] > 0.0 and sidecar["peak_rss_mb"] > 1.0


def test_unwritable_metrics_exits_2(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TestVerify.CONFIG))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    _assert_cannot_write(runner.invoke(main, [
        "verify", "--config", str(config), "--out", str(tmp_path / "r.json"),
        "--metrics", str(blocker / "m.json"),
    ]))


def _assert_cannot_write(res):
    assert res.exit_code == 2
    assert res.stderr.startswith("cannot write output: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


class TestSerialization:
    def test_floats_round_trip_exactly(self):
        values = [1 / 3, 0.1, 2.0 ** -52, 0.8164965809277261, 1e-300]
        text = dumps({"values": values})
        assert json.loads(text)["values"] == values

    def test_key_order_is_deterministic(self):
        assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})
