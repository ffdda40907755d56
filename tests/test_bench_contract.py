"""The library surface the benchmark under perfbench/ drives.

The benchmark's own tests are slow and run apart from this suite, so a
renamed function or a changed signature would otherwise pass here and
break the benchmark.  This loads the benchmark's workload and tracer
modules without editing them, checks that every traced name still
exists, and runs one operation of each workload through its own check.
"""
import dataclasses

import numpy as np
import pytest

import dduio.cli  # noqa: F401  (loads every dduio module the tracer wraps)
import dduio.config
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


def test_traced_cli_pipeline_times_the_closed_loop_run(tmp_path):
    # cmd_run reaches observer_sim.run through baselines.run_experiment, so the
    # benchmark's observer_sim.run span reads on cli-pipeline
    wl = workloads.WORKLOADS["cli-pipeline"](1, str(tmp_path))
    wl.setup()
    tr = tracer.Tracer()
    tr.install()
    try:
        output = wl.op(wl.round_keys(0)[0])
    finally:
        tr.uninstall()
        wl.close()
    assert output["codes"] == [0, 0, 0, 0]
    assert tr.metrics().get("observer_sim.run.busy_s", 0.0) > 0.0


def _mc_compare_check(tmp_path, monkeypatch, integrator):
    """mc-compare's check of one operation with observer_sim.rk4_linear swapped."""
    monkeypatch.setattr(dduio.observer_sim, "rk4_linear", integrator)
    wl = workloads.WORKLOADS["mc-compare"](1, str(tmp_path))
    wl.setup()
    wl.prepare_checks()
    key = wl.round_keys(0)[0]
    return wl.check(key, wl.op(key))


def test_mc_compare_integrates_through_sampled_generators(tmp_path, monkeypatch):
    # the benchmark's reference tests swap observer_sim.rk4_linear for
    # integrators that call ``sample`` on each generator they are given
    seen = []
    real = dduio.observer_sim.rk4_linear

    def spy(a, g, generators, *args, **kwargs):
        seen.append((a.shape, list(generators)))
        return real(a, g, generators, *args, **kwargs)

    assert _mc_compare_check(tmp_path, monkeypatch, spy) == []
    assert seen
    n_x = dduio.config.parse_config({}).build_model().n_x
    assert all(shape == (n_x, n_x) for shape, _ in seen)
    assert all(callable(getattr(gen, "sample", None)) for _, gens in seen for gen in gens)


def _sampled_forcing(g, generators, t):
    return np.column_stack([gen.sample(t) for gen in generators]) @ g.T


def _rk4_propagator(a, g, generators, x0, n_steps, dt, divergence_limit=None):
    """RK4 stepped as x+ = Phi x + W0 f(t) + Wh f(t + dt/2) + W1 f(t + dt)."""
    eye, ha = np.eye(a.shape[0]), dt * a
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    phi = eye + ha + ha2 / 2 + ha3 / 6 + ha3 @ ha / 24
    weights = (dt * (eye / 6 + ha / 6 + ha2 / 12 + ha3 / 24),
               dt * (2 * eye / 3 + ha / 3 + ha2 / 12), dt * eye / 6)
    t = np.arange(n_steps) * dt
    drive = sum(_sampled_forcing(g, generators, t + s) @ w.T
                for s, w in zip((0.0, dt / 2, dt), weights))
    out = np.empty((n_steps + 1, a.shape[0]))
    out[0] = x0
    for j in range(n_steps):
        out[j + 1] = phi @ out[j] + drive[j]
    return out


def _heun(a, g, generators, x0, n_steps, dt, divergence_limit=None):
    """Second-order Runge-Kutta with the forcing sampled on the step grid."""
    forcing = _sampled_forcing(g, generators, np.arange(n_steps + 1) * dt)
    out = np.empty((n_steps + 1, a.shape[0]))
    out[0] = x = np.asarray(x0, dtype=float)
    for j in range(n_steps):
        k1 = a @ x + forcing[j]
        x = x + dt / 2 * (k1 + a @ (x + dt * k1) + forcing[j + 1])
        out[j + 1] = x
    return out


@pytest.mark.parametrize("integrator, passes", [(_rk4_propagator, True), (_heun, False)])
def test_mc_compare_check_accepts_rk4_and_rejects_a_lower_order_plant(
        tmp_path, monkeypatch, integrator, passes):
    assert (_mc_compare_check(tmp_path, monkeypatch, integrator) == []) == passes


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
