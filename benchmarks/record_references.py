"""Record the exact-scan references that the benchmark checks against.

    python3 benchmarks/record_references.py

Run it only on a commit whose exact values are trusted; the benchmark then
fails any later commit whose values move by more than 1e-12.  For each
window scan the reference keeps every pair whose own coefficient lies
within 1e-12 of the supremum, found by evaluating each pair separately, so
a faster scan may report any of those as the attaining pair.
"""

from __future__ import annotations

import json

import workloads
from inarlab.chains import window_joint_pmf
from inarlab.dependence import maximal_correlation
from inarlab.mixing import enumerate_window_pairs


def attaining_pairs(kind: str, width: int, gap: int, cap: int, a: float, lam: float):
    spec = workloads.chain_spec(kind, a, lam)
    laws = {}
    values = []
    for pair in enumerate_window_pairs(width, gap):
        union = tuple(sorted(pair.s + pair.t))
        if union not in laws:
            laws[union] = window_joint_pmf(spec, union, cap)
        values.append((maximal_correlation(laws[union].split(pair.s, pair.t)), pair))
    top = max(v for v, _ in values)
    return top, [[list(p.s), list(p.t)] for v, p in values if v >= top - workloads.EXACT_TOL]


def main() -> None:
    refs = {}
    for a, lam in workloads.EXACT_GRID:
        values = workloads.exact_scan_values(a, lam)
        for name, (kind, width, gap, cap) in workloads.SCANS.items():
            top, pairs = attaining_pairs(kind, width, gap, cap, a, lam)
            item = values[name]
            if abs(top - item["value"]) > workloads.EXACT_TOL or item["attaining"] not in pairs:
                raise SystemExit(f"{name} at a={a}, lambda={lam}: scan disagrees with pairwise evaluation")
            item["attaining"] = pairs
        refs[workloads.grid_key(a, lam)] = values
        print(workloads.grid_key(a, lam), flush=True)
    workloads.ExactScan.references_path.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
