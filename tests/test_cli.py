"""End-to-end tests of the command-line interface."""

import json

import pytest
from click.testing import CliRunner

from inarlab.cli import main
from inarlab.serialize import dumps


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

    def test_subnormal_marginal_products_do_not_break_the_svd(self, runner):
        res = run(
            runner, "rho", "death-binomial", "--n", 60, "--p", 0.999999,
            "--a", 0.001, "--n-max", 1, "--cap", 60,
        )
        assert res.exit_code == 0
        assert 0.0 <= json.loads(res.output)["entries"][0]["rho"] <= 1.0


class TestRhoStar:
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
        ],
    )
    def test_invalid_config_values_exit_2(self, runner, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        res = runner.invoke(main, ["verify", "--config", str(bad)])
        assert res.exit_code == 2
        assert res.stderr.startswith("malformed config:")
        assert "Traceback" not in res.stderr


class TestSerialization:
    def test_floats_round_trip_exactly(self):
        values = [1 / 3, 0.1, 2.0 ** -52, 0.8164965809277261, 1e-300]
        text = dumps({"values": values})
        assert json.loads(text)["values"] == values

    def test_key_order_is_deterministic(self):
        assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})
