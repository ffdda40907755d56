"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    wl = workloads.DesignSweep(5, os.path.join(BENCH, "out"))
    wl.setup()
    wl.prepare_checks()
    return wl


@pytest.fixture(scope="module")
def mc():
    wl = workloads.McCompare(0, os.path.join(BENCH, "out"))
    wl.setup()
    wl.prepare_checks()
    return wl


def test_inputs_are_deterministic_in_the_seed():
    assert workloads.McCompare(3, "").master_seeds == \
        workloads.McCompare(3, "").master_seeds
    assert workloads.McCompare(3, "").master_seeds != \
        workloads.McCompare(4, "").master_seeds
    assert sorted(workloads.McCompare(3, "").master_seeds) == \
        list(range(workloads.MC_REFERENCE_SIZE))
    for index in range(len(workloads.SWEEP_SIZES)):
        assert workloads.sweep_plant_config(7, index) == workloads.sweep_plant_config(7, index)
        assert workloads.sweep_plant_config(7, index) != workloads.sweep_plant_config(8, index)


def test_sweep_plants_have_the_stated_sizes_and_a_hurwitz_a():
    for index, (n_x, m_nodes) in enumerate(workloads.SWEEP_SIZES):
        raw = workloads.sweep_plant_config(11, index)
        a = np.asarray(raw["plant"]["A"])
        assert a.shape == (n_x, n_x)
        assert len(raw["plant"]["nodes"]) == m_nodes == raw["graph"]["size"]
        assert np.max(np.linalg.eigvals(a).real) == pytest.approx(-0.5)


def test_traced_outputs_equal_untraced_and_bindings_are_restored(sweep):
    import dduio.linalg
    import dduio.observer_sim
    original_rank = dduio.linalg.numerical_rank
    original_run = dduio.observer_sim.run
    untraced = sweep.op(0)
    tr = tracer_module.Tracer()
    tr.install()
    try:
        assert dduio.linalg.numerical_rank is not original_rank
        traced = sweep.op(0)
    finally:
        tr.uninstall()
    assert dduio.linalg.numerical_rank is original_rank
    assert dduio.observer_sim.run is original_run
    assert sweep.signature(traced) == sweep.signature(untraced)
    metrics = tr.metrics()
    assert metrics["linalg.numerical_rank.calls"] > 0
    assert metrics["baselines.design_for_method.id.calls"] == 1
    assert tr.absent == []


def test_traced_counts_repeat_exactly(sweep):
    counts = []
    for _ in range(2):
        tr = tracer_module.Tracer()
        tr.install()
        try:
            sweep.op(1)
        finally:
            tr.uninstall()
        m = tr.metrics()
        counts.append((m["linalg.numerical_rank.calls"],
                       m["design_data.solve_data_equation_structured.calls"]))
    assert counts[0] == counts[1]


def test_missing_target_is_reported_absent(monkeypatch):
    import dduio.cli  # noqa: F401
    monkeypatch.setattr(tracer_module, "SPAN_TARGETS", tracer_module.SPAN_TARGETS
                        + (("linalg", "no_such_function", None, None),))
    tr = tracer_module.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["linalg.no_such_function"]
    assert tr.metrics()["datagen.collect.attempts_per_dataset"] == 0.0


def test_design_check_fails_on_perturbed_results(sweep):
    output = sweep.op(0)
    assert sweep.check(0, output) == []
    data = output["gains"]["data"]
    scaled = dataclasses.replace(data, L=tuple(1.001 * b for b in data.L))
    bad = dict(output, gains=dict(output["gains"], data=scaled))
    assert any("L" in p for p in sweep.check(0, bad))
    assert sweep.check(0, dict(output, leader=(output["leader"] or 0) + 1))
    assert sweep.check(0, dict(output, solvable=[not s for s in output["solvable"]]))
    assert sweep.check(0, dict(output, abscissa=1e-3))
    assert sweep.check(0, dict(output, rel_residual=2 * workloads.SWEEP_RESIDUAL_RTOL))
    model = sweep.plants[0][1]
    report = sweep.observer_sim.verify_decoupling(model, scaled)
    assert workloads.relative_residual(model, scaled, report) > workloads.SWEEP_RESIDUAL_RTOL


def test_mc_check_fails_on_perturbed_results(mc):
    key = mc.master_seeds[0]
    reference = mc.reference[str(key)]
    exact = json.loads(json.dumps(reference))
    assert workloads.check_mc_experiment(reference, exact) == []
    shifted = json.loads(json.dumps(reference))
    shifted["id"]["mae"] *= 1 + 1e-6
    assert workloads.check_mc_experiment(reference, shifted)
    untied = json.loads(json.dumps(reference))
    untied["data"]["mse"] *= 1 + 1e-8
    reference_untied = json.loads(json.dumps(untied))
    assert workloads.check_mc_experiment(reference_untied, untied)


def _exact_propagator(a, g, generators, x0, n_steps, dt, divergence_limit=None):
    """RK4 written as x+ = Phi x + W0 f(t) + Wh f(t + h/2) + W1 f(t + h)."""
    n = a.shape[0]
    eye, ha = np.eye(n), dt * a
    ha2, ha3 = ha @ ha, ha @ ha @ ha
    phi = eye + ha + ha2 / 2 + ha3 / 6 + ha3 @ ha / 24
    w0 = dt * (eye / 6 + ha / 6 + ha2 / 12 + ha3 / 24)
    wh = dt * (2 * eye / 3 + ha / 3 + ha2 / 12)
    w1 = dt * eye / 6
    t = np.arange(n_steps) * dt
    forcing = [np.column_stack([gen.sample(t + s) for gen in generators]) @ g.T
               for s in (0.0, dt / 2, dt)]
    drive = forcing[0] @ w0.T + forcing[1] @ wh.T + forcing[2] @ w1.T
    out = np.empty((n_steps + 1, n))
    out[0] = x0
    for j in range(n_steps):
        out[j + 1] = phi @ out[j] + drive[j]
    return out


def _heun(a, g, generators, x0, n_steps, dt, divergence_limit=None):
    """Second-order Runge-Kutta with the same forcing samples."""
    t = np.arange(n_steps + 1) * dt
    forcing = np.column_stack([gen.sample(t) for gen in generators]) @ g.T
    out = np.empty((n_steps + 1, a.shape[0]))
    out[0] = x = np.asarray(x0, dtype=float)
    for j in range(n_steps):
        k1 = a @ x + forcing[j]
        k2 = a @ (x + dt * k1) + forcing[j + 1]
        x = x + dt / 2 * (k1 + k2)
        out[j + 1] = x
    return out


@pytest.mark.parametrize("integrator, passes", [(_exact_propagator, True), (_heun, False)])
def test_mc_reference_accepts_exact_rewrite_and_rejects_lower_order(mc, monkeypatch,
                                                                    integrator, passes):
    import dduio.observer_sim
    monkeypatch.setattr(dduio.observer_sim, "rk4_linear", integrator)
    key = mc.master_seeds[0]
    assert (mc.check(key, mc.op(key)) == []) == passes


def test_pipeline_check_fails_on_flipped_byte_and_exit_code(tmp_path):
    root = tmp_path / "pass"
    (root / "run").mkdir(parents=True)
    (root / "run" / "errors.csv").write_bytes(b"t,e1\n0,1\n")
    first = workloads.tree_digest(str(root))
    assert workloads.check_pipeline([0, 0, 0, 0], first, workloads.tree_digest(str(root))) == []
    (root / "run" / "errors.csv").write_bytes(b"t,e1\n0,2\n")
    assert workloads.check_pipeline([0, 0, 0, 0], first, workloads.tree_digest(str(root)))
    assert workloads.check_pipeline([0, 3], first, first)
    assert workloads.check_pipeline([0, 0, 0, 0], None, first)


def test_cli_pass_is_checked_and_traced_pass_matches():
    wl = workloads.CliPipeline(2, os.path.join(BENCH, "out"))
    wl.setup()
    try:
        first = wl.op(0)
        assert wl.check(0, first) == []
        tr = tracer_module.Tracer()
        tr.install()
        try:
            second = wl.op(1)
        finally:
            tr.uninstall()
        assert wl.check(1, second) == []
        assert wl.signature(first) == wl.signature(second)
        metrics = tr.metrics()
        for name in ("cli.cmd_collect.busy_s", "observer_sim.export_run.bytes",
                     "_csvio.read_csv.busy_s", "signals.value.calls"):
            assert metrics[name] > 0, name
    finally:
        wl.close()


def _final_line(trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "design-sweep", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_emitted_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = _final_line(trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert set(run.end_to_end([1.0], {"records": [{"seconds": 1.0}], "rounds": 1,
                                      "peak_rss_mb": 1.0})) == \
        {m["name"] for m in spec["end_to_end"]}
