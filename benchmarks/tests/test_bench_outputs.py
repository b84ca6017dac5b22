"""The benchmark's correctness gates, and tracing leaves outputs unchanged.

Uses small inputs; the benchmark's own sizes are in ``workloads.py``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from inarlab.chains import InarParams, inar_kernel  # noqa: E402
from inarlab.harness import McConfig  # noqa: E402
from inarlab.mixing import rho_star_window  # noqa: E402
from inarlab.pmf import SeedSpec  # noqa: E402
from tracing import Patch, Tracer  # noqa: E402


def traced_call(fn):
    """Run ``fn()`` with every layer traced, here and in the workloads module."""
    tracer = Tracer()
    modules = layers.patched_modules([workloads, sys.modules[__name__]])
    with Patch(tracer, layers.TARGETS, modules):
        return tracer, fn()


def test_traced_campaign_reports_are_byte_identical_and_counts_repeat():
    campaign = workloads.Campaign()
    config = McConfig(n_paths=10_000, seed=SeedSpec(11), a_grid=(0.5,), lambda_grid=(1.0,))
    plain = campaign.iterate(config)
    first, traced_a = traced_call(lambda: campaign.iterate(config))
    second, traced_b = traced_call(lambda: campaign.iterate(config))
    assert traced_a[1] == plain[1] == traced_b[1]
    assert layers.repeatable_counts(first) == layers.repeatable_counts(second)
    assert first.counters["harness.checks"] == len(plain[0])
    assert first.counters["harness.check_construction_equivalence.rows_tallied"] == 10_000
    verdict = campaign.check(config, traced_a, campaign.check(config, plain, None).digest)
    assert verdict.failed == 0 and verdict.attempted == len(plain[0]) + 1


def test_traced_scan_matches_untraced_and_counts_pairs():
    spec = inar_kernel(InarParams(a=0.5, lam=1.0))
    plain = rho_star_window(spec, 3, 1, 6)
    tracer, traced = traced_call(lambda: rho_star_window(spec, 3, 1, 6))
    assert traced == plain
    counts = layers.work_counts(tracer)
    assert counts["mixing.rho_star_window.pairs"] == plain.pair_count
    assert counts["chains.TupleLaw.split.calls"] == plain.pair_count
    assert counts["mixing.rho_star_window.law_reuse"] == plain.pair_count / counts[
        "chains.window_joint_pmf.calls"
    ]


def test_traced_csvs_are_byte_identical_and_corruption_is_caught(tmp_path):
    sim = workloads.SimulateCsv(paths=300, length=12, out_dir=tmp_path)
    argv = sim.inputs(5)
    first = sim.check(argv, sim.iterate(argv), None)
    assert first.failed == 0 and first.attempted == len(workloads.SIMULATIONS)
    tracer, codes = traced_call(lambda: sim.iterate(argv))
    assert sim.check(argv, codes, first.digest).failed == 0
    assert tracer.counters["chains.write_ensemble_csv.calls"] == len(first.digest)
    assert tracer.counters["chains.simulate_inar_direct.path_steps"] == 300 * 12

    sim.iterate(argv)
    target = sim.outdir / "direct_u.csv"
    target.write_text(target.read_text().replace(",0,", ",1,", 1))
    broken = sim.check(argv, {c: 0 for c in workloads.SIMULATIONS}, first.digest)
    assert broken.failed == 1 and "direct" in broken.problems[0]


def test_exact_reference_gate_rejects_a_moved_value():
    refs = json.loads(workloads.ExactScan.references_path.read_text())
    ref = refs[workloads.grid_key(*workloads.EXACT_GRID[0])]["rho_star.inar_w5"]
    item = dict(ref, attaining=ref["attaining"][0])
    assert workloads._mismatch(item, ref) is None
    assert workloads._mismatch(dict(item, value=item["value"] + 1e-9), ref) is not None
    assert workloads._mismatch(dict(item, attaining=[[0], [1]]), ref) is not None


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)


def test_tail_keeps_ten_samples_above_it():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = bench.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0
