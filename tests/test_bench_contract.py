"""The library surface the benchmark under perfbench/ drives.

The benchmark's own tests are slow and run apart from this suite, so a
renamed function or a changed signature would otherwise pass here and
break the benchmark.  This loads the benchmark's workload and tracer
modules without editing them, checks that every traced name still
exists, and runs one operation of each workload through its own check.
"""
import pytest

import dduio.cli  # noqa: F401  (loads every dduio module the tracer wraps)
import dduio.observer_sim

from conftest import load_bench_module

workloads = load_bench_module("workloads")
tracer = load_bench_module("tracer")


def test_every_traced_name_exists():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.absent == []
    finally:
        tr.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_of_each_workload_passes_its_check(tmp_path, name):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.setup()
    wl.prepare_checks()
    try:
        key = wl.round_keys(0)[0]
        assert wl.check(key, wl.op(key)) == []
    finally:
        if hasattr(wl, "close"):
            wl.close()


def test_mc_compare_integrates_through_sampled_generators(tmp_path, monkeypatch):
    # the benchmark's reference tests swap observer_sim.rk4_linear for
    # integrators that call ``sample`` on each generator they are given
    seen = []
    real = dduio.observer_sim.rk4_linear

    def spy(a, g, generators, *args, **kwargs):
        seen.append(list(generators))
        return real(a, g, generators, *args, **kwargs)

    monkeypatch.setattr(dduio.observer_sim, "rk4_linear", spy)
    wl = workloads.WORKLOADS["mc-compare"](1, str(tmp_path))
    wl.setup()
    wl.prepare_checks()
    key = wl.round_keys(0)[0]
    assert wl.check(key, wl.op(key)) == []
    assert seen
    assert all(callable(getattr(gen, "sample", None)) for gens in seen for gen in gens)
