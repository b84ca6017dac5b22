"""The exact engine's one-BLAS-thread scope (``dependence._serial_blas``):
it changes no value, it leaves OpenBLAS's thread count as it found it,
and it is entered only for operands within the work budget."""

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner

from inarlab import dependence, poisson_death_chain, rho_star_window
from inarlab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402

BLAS = dependence._openblas_threads()
needs_openblas = pytest.mark.skipif(
    BLAS is None, reason="numpy's BLAS exports no OpenBLAS thread-count setter"
)
COMMANDS = {
    "rho": ["rho", "direct", "--a", "0.5", "--lambda", "1", "--n-max", "6"],
    "rho-star": ["rho-star", "death-poisson", "--a", "0.5", "--lambda", "3",
                 "-W", "4", "-n", "1", "--cap", "15", "--max-escape", "1e-6"],
}


@contextmanager
def blas_threads(count: int):
    """OpenBLAS set to ``count`` threads (where it is found), then restored."""
    if BLAS is None:
        yield
        return
    get, put = BLAS
    saved = get()
    put(count)
    try:
        yield
    finally:
        put(saved)


def run_threads(target, count: int) -> None:
    workers = [threading.Thread(target=target) for _ in range(count)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)


def outputs() -> dict:
    """Every exact-scan value at one grid point, and one rho and one rho-star output."""
    out = {"exact-scan": workloads.exact_scan_values(*workloads.EXACT_GRID[0])}
    for name, args in COMMANDS.items():
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0
        out[name] = res.stdout
    return out


def test_values_are_bitwise_equal_with_threads_and_without(monkeypatch):
    serial = outputs()
    monkeypatch.setattr(dependence, "_openblas_threads", lambda: None)  # scope is a no-op
    with blas_threads(2):
        threaded = outputs()
    assert sorted(threaded["exact-scan"]) == sorted(serial["exact-scan"])
    assert repr(threaded) == repr(serial)  # float reprs round-trip, so equal reprs are equal bits


@needs_openblas
def test_thread_count_is_restored_after_scans_errors_and_concurrent_scopes():
    get, _ = BLAS
    with blas_threads(2):
        before = get()
        rho_star_window(poisson_death_chain(3.0, 0.5), 4, 1, 15)
        assert get() == before
        with pytest.raises(RuntimeError), dependence._serial_blas(1):
            assert get() == 1
            raise RuntimeError("raised inside the scope")
        assert get() == before
        with dependence._serial_blas(dependence._WORK_BUDGET + 1):
            assert get() == before  # a large kernel keeps the library's count

        inside = threading.Barrier(2)
        seen = []

        def overlapping():
            with dependence._serial_blas(1):
                inside.wait(timeout=10)  # both scopes are open here
                seen.append(get())
                inside.wait(timeout=10)

        run_threads(overlapping, 2)
        assert seen == [1, 1] and get() == before


@needs_openblas
def test_many_threads_entering_and_leaving_restore_the_count_once():
    """More threads than cores, switching as often as the interpreter
    allows: a lost update to the open-scope count would leave the count
    at 1 or restore it while a scope is still open."""
    get, _ = BLAS
    errors = []

    def churn():
        for _ in range(300):
            with dependence._serial_blas(1):
                if get() != 1:
                    errors.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_threads(2):
            before = get()
            run_threads(churn, 8)
            assert get() == before
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and dependence._blas_scopes["open"] == 0


def test_size_rule_is_serial_up_to_the_work_budget():
    assert dependence._WORK_BUDGET == 2**17
    assert dependence._serial(2**17) and dependence._serial(1, 2**17)
    assert not dependence._serial(2**17 + 1) and not dependence._serial(1, 2**17 + 1)
