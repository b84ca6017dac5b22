"""Set-up probe: a fresh process imports inarlab and builds one workload's inputs.

    python3 benchmarks/probe.py <workload> <seed>

``bench.py`` times this whole process, interpreter start included, and
reports the median over several probes as ``setup_s``.
"""

import sys

if __name__ == "__main__":
    import workloads

    workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
