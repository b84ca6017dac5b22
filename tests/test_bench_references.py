"""The exact values of the benchmark's ``exact-scan`` workload against the
references recorded in ``benchmarks/references.json``, through the
benchmark's own comparison, so a moved exact value fails in the test suite
and not only in a benchmark run.  Nothing under ``benchmarks/`` is written."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402


def test_exact_scan_values_match_the_recorded_references():
    a, lam = workloads.EXACT_GRID[0]
    path = workloads.ExactScan.references_path
    refs = json.loads(path.read_text(encoding="utf-8"))[workloads.grid_key(a, lam)]
    values = workloads.exact_scan_values(a, lam)
    assert sorted(values) == sorted(refs)
    problems = {name: workloads._mismatch(values[name], ref) for name, ref in refs.items()}
    assert {name: why for name, why in problems.items() if why is not None} == {}
