"""Closed-loop plant/observer simulation and the error-dynamics identities."""
import dataclasses
import io
import os
import tracemalloc

import numpy as np
import pytest

from dduio import integrate, observer_sim
from dduio.config import parse_config
from dduio.design_model import DuioGains, build_model_based_gains
from dduio.errors import DimensionError, DivergenceError
from dduio.integrate import DRIVE_ROWS, STRIDE, rk4_linear, rk4_lower_block, tabulate
from dduio.linalg import spectral_abscissa
from dduio.network import SensorGraph, complete
from dduio.baselines import collect_all_nodes, design_for_method
from dduio.observer_sim import (_closed_loop, error_dynamics_matrix, error_norm_chunks,
                                export_run, run, verify_decoupling, xhat_writer)
from dduio.plant import PlantModel, simulate, step_count
from dduio.signals import Sinusoid, Zero

from conftest import (CountedSignal, bench_signals, coupling_matrix, load_bench_module,
                      random_connected_graph, run_with_estimates, simulate_error_dynamics,
                      single_node_model)

sweep_plant_config = load_bench_module("workloads").sweep_plant_config


def matched_z0(model, gains, x0):
    return np.vstack([x0 - gains.H[i] @ (model.nodes[i].C @ x0)
                      for i in range(model.M)])


def test_zero_initial_error_is_invariant(bench_model, bench_graph, model_gains):
    # with exact decoupling the zero-error manifold is invariant even
    # under active unknown inputs and disturbances
    gains = dataclasses.replace(model_gains, gamma=0.0)
    x0 = np.array([0.4, -0.7, 0.2, 0.9])
    inputs, dist = bench_signals(5, 6, 1e-3)
    res = run(bench_model, bench_graph, gains, x0, inputs, dist,
              horizon=2.0, dt=1e-3, z0=matched_z0(bench_model, gains, x0))
    assert res.error_norms.max() < 1e-9


def test_benchmark_errors_decay(bench_model, bench_graph, data_gains):
    inputs, dist = bench_signals(5, 6, 1e-3)
    res = run(bench_model, bench_graph, data_gains, np.array([0.5, -0.5, 0.3, -0.2]),
              inputs, dist, horizon=15.0, dt=1e-3)
    assert res.error_norms[-1].max() < 1e-3
    assert res.spread[-1] < 1e-3


def test_single_node_matches_standalone_observer_oracle():
    # independent oracle: hand-rolled RK4 of the scalar-input observer
    a = np.array([[0.0, 1.0], [-2.0, -0.6]])
    model = single_node_model(a, np.array([[0.0], [1.0]]), np.zeros((2, 0)),
                              np.array([[1.0, 0.0]]))
    graph = SensorGraph(np.zeros((1, 1)))
    gains = build_model_based_gains(model, graph)
    u = Sinusoid(0.7, 1.3, 0.4)
    x0 = np.array([0.8, -0.1])
    dt, horizon = 1e-3, 4.0
    res, xhat = run_with_estimates(model, graph, gains, x0, [u], [], horizon=horizon, dt=dt)

    e_mat, f_mat, l_mat, h_mat = gains.E_obs[0], gains.F[0], gains.L[0], gains.H[0]
    c = model.nodes[0].C
    n_steps = int(round(horizon / dt))
    x = x0.copy()
    z = np.zeros(2)
    for j in range(n_steps):
        t = j * dt
        def rhs(tt, xv, zv):
            uv = np.array([u.value(tt)])
            y = c @ xv
            return (a @ xv + model.B[:, :1] @ uv,
                    e_mat @ zv + f_mat @ uv + l_mat @ y)
        k1x, k1z = rhs(t, x, z)
        k2x, k2z = rhs(t + dt / 2, x + dt / 2 * k1x, z + dt / 2 * k1z)
        k3x, k3z = rhs(t + dt / 2, x + dt / 2 * k2x, z + dt / 2 * k2z)
        k4x, k4z = rhs(t + dt, x + dt * k3x, z + dt * k3z)
        x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        z = z + dt / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
    xhat_oracle = z + h_mat @ (c @ x)
    assert np.linalg.norm(res.x[-1] - x) < 1e-9
    assert np.linalg.norm(xhat[-1, 0] - xhat_oracle) < 1e-9


def test_error_matrix_shapes_and_cases(bench_graph, model_gains):
    m, absc = error_dynamics_matrix(model_gains, bench_graph)
    assert m.shape == (20, 20)
    assert absc < 0
    decoupled = dataclasses.replace(model_gains, gamma=0.0)
    m0, _ = error_dynamics_matrix(decoupled, bench_graph)
    import scipy.linalg as sla
    assert np.allclose(m0, sla.block_diag(*model_gains.E_obs))

    single = single_node_model(np.array([[-1.0]]), np.zeros((1, 1)),
                               np.zeros((1, 0)), np.eye(1))
    g1 = build_model_based_gains(single, SensorGraph(np.zeros((1, 1))))
    m1, a1 = error_dynamics_matrix(g1, SensorGraph(np.zeros((1, 1))))
    assert np.allclose(m1, g1.E_obs[0])
    assert a1 == pytest.approx(spectral_abscissa(g1.E_obs[0]))


def test_closed_loop_observer_block_is_the_error_matrix(bench_model, bench_graph,
                                                        model_gains, data_gains):
    # A_cl's observer-state block, the error matrix and the dense K-block
    # oracle agree bit for bit, for any leader
    cases = [(bench_model, bench_graph, model_gains), (bench_model, bench_graph, data_gains)]
    rng = np.random.default_rng(29)
    for leader in (0, 2, 4):
        m, n = 5, int(rng.integers(1, 4))
        model = PlantModel.assemble(rng.normal(size=(n, n)), rng.normal(size=(n, 1)),
                                    np.zeros((n, 0)),
                                    [(rng.normal(size=(n, n)), (0,), ()) for _ in range(m)])
        blocks = [tuple(rng.normal(size=(n, cols)) for _ in range(m)) for cols in (n, 1, n, n)]
        gains = DuioGains(*blocks, gamma=float(rng.uniform(0.5, 5.0)), leader=leader)
        cases.append((model, random_connected_graph(rng, m), gains))
    for model, graph, gains in cases:
        n = model.n_x
        k_blocks = [np.zeros((n, n)) if i == gains.leader else gains.gamma * np.eye(n)
                    for i in range(gains.M)]
        assert all(k.tobytes() == want.tobytes() for k, want in zip(gains.K, k_blocks))
        a_cl, _ = _closed_loop(model, graph, gains)
        err, _ = error_dynamics_matrix(gains, graph)
        oracle = coupling_matrix(gains.E_obs, k_blocks, graph.laplacian)
        assert a_cl[n:, n:].tobytes() == err.tobytes() == oracle.tobytes()


def test_decoupling_report(bench_model, model_gains, data_gains):
    rep_m = verify_decoupling(bench_model, model_gains)
    assert rep_m.max_residual < 1e-10
    rep_d = verify_decoupling(bench_model, data_gains)
    assert rep_d.max_residual < 1e-6
    tampered_h = list(model_gains.H)
    tampered_h[0] = tampered_h[0].copy()
    tampered_h[0][0, 0] += 0.1
    rep_t = verify_decoupling(bench_model,
                              dataclasses.replace(model_gains, H=tuple(tampered_h)))
    assert rep_t.unknown_residuals[0] > 1e-3


def test_run_matches_error_ode(bench_model, bench_graph, model_gains):
    x0 = np.array([0.6, -0.2, 0.4, 0.1])
    inputs, dist = bench_signals(9, 10, 1e-3)
    res, xhat = run_with_estimates(bench_model, bench_graph, model_gains, x0, inputs, dist,
                                   horizon=10.0, dt=1e-3)
    e0 = np.concatenate([x0 - model_gains.H[i] @ (bench_model.nodes[i].C @ x0)
                         for i in range(5)])
    t, e = simulate_error_dynamics(model_gains, bench_graph, e0,
                                   horizon=10.0, dt=1e-3)
    e_run = (res.x[:, None, :] - xhat).reshape(len(t), -1)
    assert np.abs(e_run - e).max() < 1e-7


def test_error_ode_trivial_and_envelope(bench_graph, model_gains):
    t, e = simulate_error_dynamics(model_gains, bench_graph, np.zeros(20),
                                   horizon=1.0, dt=1e-2)
    assert np.all(e == 0)
    rng = np.random.default_rng(3)
    e0 = rng.normal(size=20)
    m, absc = error_dynamics_matrix(model_gains, bench_graph)
    t, e = simulate_error_dynamics(model_gains, bench_graph, e0,
                                   horizon=8.0, dt=1e-3)
    norms = np.linalg.norm(e, axis=1)
    # exponential envelope from the eigen-decomposition of the coupling matrix
    lam, vec = np.linalg.eig(m)
    cond = np.linalg.cond(vec)
    envelope = cond * np.linalg.norm(e0) * np.exp(absc * t)
    assert np.all(norms <= envelope * (1 + 1e-6))


def test_unknown_input_insensitivity(bench_model, bench_graph, data_gains):
    x0 = np.array([0.3, 0.3, -0.4, 0.2])
    inputs_a, dist_a = bench_signals(13, 14, 1e-3)
    res_a, xhat_a = run_with_estimates(bench_model, bench_graph, data_gains, x0, inputs_a,
                                       dist_a, horizon=3.0, dt=1e-3)
    inputs_b = [inputs_a[0], Zero()]        # unknown input channel silenced
    res_b, xhat_b = run_with_estimates(bench_model, bench_graph, data_gains, x0, inputs_b,
                                       [Zero()], horizon=3.0, dt=1e-3)
    e_a = res_a.x[:, None, :] - xhat_a
    e_b = res_b.x[:, None, :] - xhat_b
    assert np.abs(e_a - e_b).max() < 1e-8


def test_divergence_and_dimension_errors(bench_model, bench_graph, model_gains):
    inputs, dist = bench_signals(5, 6, 1e-3)
    with pytest.raises(DimensionError):
        run(bench_model, bench_graph, model_gains, np.zeros(3), inputs, dist,
            horizon=1.0, dt=1e-3)
    bad_h = tuple(h[:, :2] for h in model_gains.H)
    with pytest.raises(DimensionError):
        run(bench_model, bench_graph, dataclasses.replace(model_gains, H=bad_h),
            np.zeros(4), inputs, dist, horizon=1.0, dt=1e-3)
    for leader in (-1, 5):
        with pytest.raises(DimensionError, match="leader"):
            run(bench_model, bench_graph, dataclasses.replace(model_gains, leader=leader),
                np.zeros(4), inputs, dist, horizon=1.0, dt=1e-3)
    with pytest.raises(DimensionError):
        run(bench_model, complete(4), model_gains, np.zeros(4), inputs, dist,
            horizon=1.0, dt=1e-3)
    unstable = dataclasses.replace(
        model_gains, E_obs=tuple(e + 10.0 * np.eye(4) for e in model_gains.E_obs),
        gamma=0.0)
    with pytest.raises(DivergenceError):
        run(bench_model, bench_graph, unstable, np.ones(4), inputs, dist,
            horizon=10.0, dt=1e-2)


def test_run_names_the_observer_state_size_it_expects(bench_model, bench_graph, model_gains):
    with pytest.raises(DimensionError, match=r"z0 has 7 entries, expected M\*n_x = 20"):
        run(bench_model, bench_graph, model_gains, np.zeros(4), *bench_signals(5, 6, 1e-3),
            horizon=1.0, dt=1e-3, z0=np.zeros(7))


@pytest.mark.parametrize("horizon, dt", [(1.0, np.nan), (np.nan, 1e-3), (np.inf, 1e-3)])
def test_run_refuses_nan_and_infinite_times(bench_model, bench_graph, model_gains,
                                            horizon, dt):
    with pytest.raises(DimensionError, match="0 < dt <= horizon < inf"):
        run(bench_model, bench_graph, model_gains, np.zeros(4), *bench_signals(5, 6, 1e-3),
            horizon=horizon, dt=dt)


def test_run_refuses_inputs_standing_in_for_disturbances(bench_model, bench_graph,
                                                         model_gains):
    # three input generators and no disturbance one: the total matches n_u + n_d,
    # the split does not, and every scenario path refuses it as simulate does
    inputs, dist = bench_signals(5, 6, 1e-3)
    args = (np.zeros(4), [*inputs, *dist], [])
    message = "need 2 input generators, got 3"
    with pytest.raises(DimensionError, match=message):
        simulate(bench_model, *args, horizon=1.0, dt=1e-3)
    with pytest.raises(DimensionError, match=message):
        run(bench_model, bench_graph, model_gains, *args, horizon=1.0, dt=1e-3)
    with pytest.raises(DimensionError, match=message):
        next(error_norm_chunks(bench_model, bench_graph, [(model_gains, None)] * 2, *args,
                               horizon=1.0, dt=1e-3))


def test_divergent_plant_raises_at_the_time_simulate_does(bench_model, bench_graph,
                                                          model_gains):
    unstable = dataclasses.replace(bench_model, A=bench_model.A + 10.0 * np.eye(4))
    x0 = np.ones(4)
    with pytest.raises(DivergenceError) as plant:
        simulate(unstable, x0, *bench_signals(5, 6, 1e-2), horizon=10.0, dt=1e-2)
    with pytest.raises(DivergenceError) as alone:
        run(unstable, bench_graph, model_gains, x0, *bench_signals(5, 6, 1e-2),
            horizon=10.0, dt=1e-2)
    passed = error_norm_chunks(unstable, bench_graph, [(model_gains, None)] * 2, x0,
                               *bench_signals(5, 6, 1e-2), horizon=10.0, dt=1e-2)
    with pytest.raises(DivergenceError) as shared:
        next(passed)
    assert 0.0 < plant.value.t < 10.0
    assert alone.value.t == shared.value.t == plant.value.t
    assert str(alone.value) == str(shared.value) == str(plant.value)


def test_export_files_and_determinism(tmp_path, bench_model, bench_graph, model_gains):
    inputs, dist = bench_signals(5, 6, 1e-3)
    res = run(bench_model, bench_graph, model_gains, np.array([0.1, 0.2, 0.3, 0.4]),
              inputs, dist, horizon=1.0, dt=1e-2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    export_run(res, d1)
    export_run(res, d2)
    shapes = {"t": (101,), "x": (101, 4), "error_norms": (101, 5), "spread": (101,)}
    assert sorted(os.listdir(d1)) == sorted([f"{field}.npy" for field in shapes]
                                            + ["summary.json"])
    for name in [f"{field}.npy" for field in shapes] + ["summary.json"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    for field, shape in shapes.items():
        saved = np.load(d1 / f"{field}.npy", allow_pickle=False)
        assert saved.dtype == np.float64 and saved.shape == shape
        assert saved.tobytes() == getattr(res, field).tobytes()


def estimates_oracle(xi, model, gains):
    """Node-by-node xhat, np.linalg.norm errors and the pairwise spread loop."""
    n, m_nodes = model.n_x, model.M
    x = xi[:, :n]
    z = xi[:, n:].reshape(-1, m_nodes, n)
    xhat = np.empty_like(z)
    for i, node in enumerate(model.nodes):
        xhat[:, i, :] = z[:, i, :] + (x @ node.C.T) @ gains.H[i].T
    error_norms = np.linalg.norm(x[:, None, :] - xhat, axis=2)
    spread = np.zeros(xi.shape[0])
    for i in range(m_nodes):
        for j in range(i + 1, m_nodes):
            d_ij = np.linalg.norm(xhat[:, i, :] - xhat[:, j, :], axis=1)
            np.maximum(spread, d_ij, out=spread)
    return xhat, error_norms, spread


def assert_run_matches_oracle(model, graph, gains, x0, z0, signals, n_steps, dt):
    res, xhat = run_with_estimates(model, graph, gains, x0, *signals(), horizon=n_steps * dt,
                                   dt=dt, z0=z0)
    assert np.array_equal(res.t, np.arange(n_steps + 1) * dt)
    assert res.x.tobytes() == simulate(model, x0, *signals(), n_steps * dt, dt).x.tobytes()
    # the plant and the network integrated as one system
    a_cl, g_cl = _closed_loop(model, graph, gains)
    inputs, dist = signals()
    xi = rk4_linear(a_cl, g_cl, list(inputs) + list(dist),
                    np.concatenate([x0, z0.ravel()]), n_steps, dt)
    _assert_rel(res.x, xi[:, :model.n_x], 1e-14)
    for new, old in zip((xhat, res.error_norms, res.spread),
                        estimates_oracle(xi, model, gains)):
        assert new.shape == old.shape
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()
    return res, xhat


@pytest.fixture(scope="module")
def preset():
    cfg = parse_config({})
    model, graph = cfg.build_model(), cfg.build_graph()
    return cfg, model, graph, build_model_based_gains(model, graph)


@pytest.mark.parametrize("n_steps", [None, 2 * DRIVE_ROWS + 6, DRIVE_ROWS - 1])
def test_run_estimates_match_the_node_loop_oracle(preset, n_steps):
    cfg, model, graph, gains = preset
    dt = cfg.run.dt
    if n_steps is None:
        n_steps = int(round(cfg.run.horizon / dt))
    # node i starts at (-1)**i * i, so the last pair is the farthest apart
    offsets = np.arange(model.M) * (-1.0) ** np.arange(model.M)
    z0 = np.outer(offsets, np.ones(model.n_x))
    res, xhat = assert_run_matches_oracle(
        model, graph, gains, cfg.draw_x0(3), z0,
        lambda: (cfg.build_inputs(3), cfg.build_disturbances(3)), n_steps, dt)
    assert res.spread[0] == pytest.approx(np.linalg.norm(xhat[0, -1] - xhat[0, -2]))


def test_single_node_run_matches_oracle_with_zero_spread():
    a = np.array([[0.0, 1.0], [-2.0, -0.6]])
    model = single_node_model(a, np.array([[0.0], [1.0]]), np.zeros((2, 0)),
                              np.array([[1.0, 0.0]]))
    graph = SensorGraph(np.zeros((1, 1)))
    gains = build_model_based_gains(model, graph)
    res, _ = assert_run_matches_oracle(
        model, graph, gains, np.array([0.8, -0.1]), np.zeros((1, 2)),
        lambda: ([Sinusoid(0.7, 1.3, 0.4)], []), DRIVE_ROWS + 5, 1e-3)
    assert res.error_norms.max() > 0.0
    assert not res.spread.any()


def test_run_allocates_no_full_length_temporary(preset):
    cfg, model, graph, gains = preset
    x0 = cfg.draw_x0(3)
    # built once, so the values the held disturbance draws are not counted
    signals = cfg.build_inputs(3), cfg.build_disturbances(3)

    def one_run():
        return run(model, graph, gains, x0, *signals, horizon=cfg.run.horizon, dt=cfg.run.dt)

    one_run()
    tracemalloc.start()
    try:
        res = one_run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (res.t, res.x, res.error_norms, res.spread))
    held += (2 * res.t.size - 1) * (model.n_u + model.n_d) * 8   # the signal table
    # beyond what the run must hold, less than half of one full xhat: the
    # estimates live one chunk at a time
    assert peak - held < res.t.size * model.M * model.n_x * 8 // 2


def _preset_networks(preset):
    """The preset's model, data and id gains, each from its matched z0."""
    cfg, model, graph, _ = preset
    datasets = collect_all_nodes(cfg, model, 4)
    gains = [design_for_method(m, cfg, model, graph, datasets) for m in ("model", "data", "id")]
    return cfg, model, graph, gains


def _sweep_networks():
    """A design-sweep plant (n_x 16, M 8) under active signals, and two gains."""
    raw = sweep_plant_config(1, 0)
    n_inputs = len(raw["plant"]["inputs"])
    raw["plant"]["inputs"] = [{"kind": "sinusoid", "amplitude": 1.0, "frequency": 0.5 + k}
                              for k in range(n_inputs)]
    raw["plant"]["disturbances"] = [{"kind": "piecewise-constant-random", "low": -1.0,
                                     "high": 1.0, "hold": 0.05}]
    cfg = parse_config(raw)
    model, graph = cfg.build_model(), cfg.build_graph()
    gains = design_for_method("model", cfg, model, graph)
    return cfg, model, graph, [gains, dataclasses.replace(gains, gamma=1.5 * gains.gamma)]


def _joined_norms(chunks, rows):
    """A network's error norms from ``error_norm_chunks``, joined; each chunk
    starts where the last one ended, and together they cover ``rows`` rows."""
    parts, end = [], 0
    for r0, norms in chunks:
        assert r0 == end
        parts.append(norms.copy())
        end += norms.shape[0]
    assert end == rows
    return np.concatenate(parts)


def _assert_rel(new, old, rtol):
    assert np.shape(new) == np.shape(old)
    assert np.abs(np.asarray(new) - old).max() <= rtol * np.abs(old).max()


@pytest.mark.parametrize("plant", ["preset", "sweep"])
def test_scenario_pass_matches_separate_runs(preset, plant):
    # every network's norms in a shared pass are its own run's bit for bit
    cfg, model, graph, networks = (_preset_networks(preset) if plant == "preset"
                                   else _sweep_networks())
    x0 = cfg.draw_x0(5)
    starts = [(g, cfg.initial_observer_states(x0, model, g) + 0.1 * k)
              for k, g in enumerate(networks)]
    n_steps = 2 * DRIVE_ROWS + 6
    horizon = n_steps * cfg.run.dt

    def signals():
        return cfg.build_inputs(5), cfg.build_disturbances(5)

    passed = error_norm_chunks(model, graph, starts, x0, *signals(), horizon, cfg.run.dt)
    count = 0
    for (gains, z0), (t, chunks) in zip(starts, passed):
        alone = run(model, graph, gains, x0, *signals(), horizon, cfg.run.dt, z0=z0)
        assert t.tobytes() == alone.t.tobytes()
        norms = _joined_norms(chunks, n_steps + 1)
        assert norms.tobytes() == alone.error_norms.tobytes()
        count += 1
    assert count == len(starts)
    assert next(passed, None) is None


def _estimates_in_pass(x, z, model, gains, block=DRIVE_ROWS):
    """xhat, the error norms and the spread in one loop over blocks of ``block``
    rows (the pass's chunks), the spread as the scenario pass computed it
    before it was left to first read.

    Each node's squared errors are added state by state, in state order: a
    ``sum`` over the state axis would sum pairwise when a block has one row."""
    n, m_nodes = model.n_x, model.M
    rows = x.shape[0]
    out_map = np.vstack([h @ node.C for h, node in zip(gains.H, model.nodes)])
    error_norms = np.empty((rows, m_nodes))
    spread = np.empty(rows)
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        x_blk = np.ascontiguousarray(x[r0:r1].T)
        est = out_map @ x_blk
        est += z[r0:r1].T
        z[r0:r1] = est.T
        est = est.reshape(m_nodes, n, -1)
        far = np.zeros(r1 - r0)
        for i in range(m_nodes - 1):
            diff = est[i + 1:] - est[i]
            diff *= diff
            np.maximum(far, diff.sum(axis=1).max(axis=0), out=far)
        np.sqrt(far, out=spread[r0:r1])
        est -= x_blk
        est *= est
        norms = est[:, 0].copy()
        for state in range(1, n):
            norms += est[:, state]
        error_norms[r0:r1] = np.sqrt(norms).T
    return z.reshape(rows, m_nodes, n), error_norms, spread


@pytest.mark.parametrize("case", ["preset", "whole-chunks", "one-chunk", "under-stride",
                                  "sweep"])
def test_streamed_export_is_np_save_of_the_kept_run(tmp_path, preset, case):
    # The kept run is the test's own: _estimates_in_pass over the observer
    # states integrated whole.  The preset's 40 s end in a partial chunk,
    # 2 * DRIVE_ROWS steps in a one-row chunk, DRIVE_ROWS - 1 steps make one
    # chunk with a tail block past its whole blocks, and fewer than STRIDE
    # steps are one tail block.
    cfg, model, graph, gains = preset
    if case == "sweep":
        cfg, model, graph, (gains, _) = _sweep_networks()
    dt = cfg.run.dt
    n_steps = {"preset": step_count(cfg.run.horizon, dt), "whole-chunks": 2 * DRIVE_ROWS,
               "one-chunk": DRIVE_ROWS - 1, "under-stride": STRIDE - 1,
               "sweep": 2 * DRIVE_ROWS + 6}[case]
    x0 = cfg.draw_x0(5)
    # node i starts off by (-1)**i * i, so the last pair starts the farthest apart
    offsets = np.arange(model.M) * (-1.0) ** np.arange(model.M)
    z0 = (cfg.initial_observer_states(x0, model, gains) + offsets[:, None]).ravel()

    def signals():
        return cfg.build_inputs(5), cfg.build_disturbances(5)

    out = tmp_path / "streamed"
    with xhat_writer(out) as xhat_file:
        res = run(model, graph, gains, x0, *signals(), n_steps * dt, dt, z0=z0,
                  xhat_file=xhat_file)
    export_run(res, out)
    a_cl, g_cl = _closed_loop(model, graph, gains)
    inputs, disturbances = signals()
    z = rk4_lower_block(a_cl, g_cl, tabulate(inputs + disturbances, n_steps, dt), res.x, z0, dt)
    kept = dict(zip(("t", "x", "xhat", "error_norms", "spread"),
                    (res.t, res.x, *_estimates_in_pass(res.x, z, model, gains))))
    assert sorted(os.listdir(out)) == sorted([f"{f}.npy" for f in kept] + ["summary.json"])
    for field, array in kept.items():
        saved = io.BytesIO()
        np.save(saved, array, allow_pickle=False)
        assert (out / f"{field}.npy").read_bytes() == saved.getvalue(), field


def _scalar_network():
    """A scalar plant with one known input, which three nodes of a complete graph
    each measure through their own gain, and its model-based gains."""
    model = PlantModel.assemble([[-0.5]], [[1.0]], np.zeros((1, 0)),
                                [([[c]], (0,), None) for c in (1.0, 2.0, 0.5)])
    graph = complete(3)
    return model, graph, build_model_based_gains(model, graph)


@pytest.mark.parametrize("chunks", ["one-row", "whole-then-one-row"])
@pytest.mark.parametrize("plant", ["scalar", "preset"])
def test_error_step_is_the_oracle_bit_for_bit_on_edge_values(monkeypatch, preset, plant,
                                                             chunks):
    # The plant pass is replaced by states holding -0.0, subnormals and entries
    # near 1e11, so x's copy per node must be exact where a sign, an exponent or
    # a last bit could slip.  Every chunk has one row (DRIVE_ROWS 1), or one
    # whole chunk is followed by a one-row chunk; the oracle works in the same
    # blocks, since a one-row product H C x may sum in another order.
    if plant == "preset":
        cfg, model, graph, gains = preset
        signals = cfg.build_inputs(5), cfg.build_disturbances(5)
    else:
        model, graph, gains = _scalar_network()
        signals = [Sinusoid(0.7, 1.3, 0.4)], []
    n_steps, block = DRIVE_ROWS, DRIVE_ROWS
    if chunks == "one-row":
        for module in (integrate, observer_sim):
            monkeypatch.setattr(module, "DRIVE_ROWS", 1)
        n_steps, block = 40, 1
    dt = 1e-3
    edge = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 9.87654321e10, -1.2345678e11,
                     0.3, -1.7])
    rng = np.random.default_rng(7)
    x = rng.choice(edge, size=(n_steps + 1, model.n_x))
    x[:3] = np.resize(edge, (3, model.n_x))
    z0 = rng.choice(edge[:5], size=model.M * model.n_x)
    monkeypatch.setattr(observer_sim, "rk4_linear", lambda *args: x)
    res, xhat = run_with_estimates(model, graph, gains, x[0], *signals, n_steps * dt, dt,
                                   z0=z0)
    a_cl, g_cl = _closed_loop(model, graph, gains)
    z = rk4_lower_block(a_cl, g_cl, tabulate(signals[0] + signals[1], n_steps, dt), x, z0, dt)
    want = _estimates_in_pass(x, z, model, gains, block)
    for name, got, expected in zip(("xhat", "error_norms", "spread"),
                                   (xhat, res.error_norms, res.spread), want):
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    assert res.error_norms.max() > 1e10 and (res.error_norms < 1e-300).any()


def test_first_network_of_a_shared_pass_is_run_bit_for_bit(preset):
    # the pass advances a second network beside the first; the first must
    # not see it
    cfg, model, graph, gains = preset
    x0 = cfg.draw_x0(3)
    z0 = cfg.initial_observer_states(x0, model, gains)
    args = (cfg.build_inputs(3), cfg.build_disturbances(3), cfg.run.horizon, cfg.run.dt)
    second = dataclasses.replace(gains, gamma=1.5 * gains.gamma)
    passed = error_norm_chunks(model, graph, [(gains, z0), (second, z0)], x0, *args)
    alone = run(model, graph, gains, x0, *args, z0=z0)
    _, chunks = next(passed)
    assert _joined_norms(chunks, alone.t.size).tobytes() == alone.error_norms.tobytes()
    _, chunks = next(passed)
    _joined_norms(chunks, alone.t.size)
    assert next(passed, None) is None


@pytest.mark.parametrize("position", [0, 1, 2])
def test_scenario_pass_diverges_where_the_network_alone_does(bench_model, bench_graph,
                                                             model_gains, position):
    unstable = dataclasses.replace(
        model_gains, E_obs=tuple(e + 10.0 * np.eye(4) for e in model_gains.E_obs),
        gamma=0.0)
    networks = [(model_gains, None)] * 3
    networks[position] = (unstable, None)
    x0 = np.ones(4)
    with pytest.raises(DivergenceError) as alone:
        run(bench_model, bench_graph, unstable, x0, *bench_signals(5, 6, 1e-2),
            horizon=10.0, dt=1e-2)
    passed = error_norm_chunks(bench_model, bench_graph, networks, x0,
                               *bench_signals(5, 6, 1e-2), horizon=10.0, dt=1e-2)
    for _ in range(position):
        _joined_norms(next(passed)[1], 1001)
    _, chunks = next(passed)
    with pytest.raises(DivergenceError) as err:
        _joined_norms(chunks, 1001)
    assert err.value.t == alone.value.t


def test_scenario_pass_samples_each_signal_once(preset):
    cfg, model, graph, gains = preset
    inputs = [CountedSignal(g) for g in cfg.build_inputs(3)]
    dist = [CountedSignal(g) for g in cfg.build_disturbances(3)]
    networks = [(gains, None), (dataclasses.replace(gains, gamma=2.0 * gains.gamma), None),
                (gains, np.ones((model.M, model.n_x)))]
    passed = error_norm_chunks(model, graph, networks, cfg.draw_x0(3), inputs, dist,
                               horizon=5.0, dt=cfg.run.dt)
    assert len([_joined_norms(chunks, t.size) for t, chunks in passed]) == 3
    assert [g.calls for g in inputs + dist] == [1] * len(inputs + dist)
