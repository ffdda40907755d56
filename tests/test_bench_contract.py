"""The library surface the benchmark under perfbench/ drives.

The benchmark's own tests are slow and run apart from this suite, so a
renamed function or a changed signature would otherwise pass here and
break the benchmark.  This loads the benchmark's workload and tracer
modules without editing them, checks that every traced name still
exists, and runs one operation of each workload through its own check.
"""
import dataclasses

import pytest

import dduio.cli  # noqa: F401  (loads every dduio module the tracer wraps)
import dduio.observer_sim

from conftest import decomposition_spy, load_bench_module

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


def test_design_sweep_factors_nothing_above_one_node_block(tmp_path):
    # the largest plant, n_x 32 on 12 nodes: the coupled matrix is 384 x 384
    wl = workloads.WORKLOADS["design-sweep"](1, str(tmp_path))
    wl.setup()
    wl.prepare_checks()
    key = len(wl.plants) - 1
    _, model, graph, _ = wl.plants[key]
    with decomposition_spy() as calls:
        output = wl.op(key)
    assert wl.check(key, output) == []
    # only the SVDs of the data stacks are larger than the n_x x n_x leader block
    assert calls.kinds.count("eigvals") > 0
    assert all(max(shape) <= model.n_x
               for (shape, _), kind in zip(calls, calls.kinds) if kind != "svd")
    # the abscissa alone, on the designed gains and on a copy that recomputes its facts
    for gains in (output["gains"]["data"], dataclasses.replace(output["gains"]["data"])):
        with decomposition_spy() as calls:
            _, abscissa = dduio.observer_sim.error_dynamics_matrix(gains, graph)
        assert abscissa == output["abscissa"]
        assert all(max(shape) <= model.n_x for shape, _ in calls)
