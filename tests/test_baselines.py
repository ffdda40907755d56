"""Identification baseline, error metrics, and the comparison harness."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from dduio import baselines
from dduio.baselines import (build_identified_gains, collect_all_nodes, compute_mse_mae,
                             design_for_method, experiment_metrics, identify_least_squares,
                             monte_carlo_compare, run_experiment, write_comparison_table)
from dduio.config import ExperimentConfig, parse_config
from dduio.design_model import DesignSection
from dduio.errors import DesignError, EmptyRunError, RankError
from dduio.linalg import spectral_abscissa
from dduio import observer_sim
from dduio.integrate import DRIVE_ROWS
from dduio.observer_sim import RunResult, export_run, run, xhat_writer

from conftest import (BENCH_GAMMA, CountedSignal, bench_signals, coupling_matrix,
                      load_bench_module, pointwise_dataset)

sweep_plant_config = load_bench_module("workloads").sweep_plant_config


def test_identification_exact_without_unknown_inputs():
    a = np.array([[0.0, 1.0], [-3.0, -0.5]])
    b_m = np.array([[0.2], [1.0]])
    ds = pointwise_dataset(a, b_m, np.zeros((2, 0)), np.eye(2), N=25, seed=1)
    a_hat, b_hat, c_hat = identify_least_squares(ds)
    assert np.linalg.norm(a_hat - a) < 1e-9
    assert np.linalg.norm(b_hat - b_m) < 1e-9
    assert np.linalg.norm(c_hat - np.eye(2)) < 1e-9


def test_identification_biased_by_active_unknown_inputs(bench_model, bench_datasets):
    node = bench_model.nodes[0]
    a_hat, _, c_hat = identify_least_squares(bench_datasets[0])
    assert np.linalg.norm(a_hat - bench_model.A) > 0.1
    # the bias lies in the span of the unknown-input columns
    resid = a_hat - bench_model.A
    proj = node.B_p @ np.linalg.pinv(node.B_p)
    assert np.linalg.norm(resid - proj @ resid) < 1e-8
    assert np.linalg.norm(c_hat - node.C) < 1e-9


def test_identification_matches_normal_equations_oracle():
    rng = np.random.default_rng(4)
    n_x, n_m, n_samples = 3, 2, 12
    q, _ = np.linalg.qr(rng.normal(size=(n_samples, n_x + n_m)))
    x = q[:, :n_x].T
    u = q[:, n_x:].T
    a = rng.normal(size=(n_x, n_x))
    b_m = rng.normal(size=(n_x, n_m))
    xdot = a @ x + b_m @ u
    ds = dataclasses.replace(pointwise_dataset(a, b_m, np.zeros((n_x, 0)),
                                               np.eye(n_x), n_samples, seed=5),
                             X=x, U=u, Xdot=xdot, Y=x, Ydot=xdot)
    a_hat, b_hat, _ = identify_least_squares(ds)
    big = np.vstack([x, u])
    theta = xdot @ big.T @ np.linalg.inv(big @ big.T)
    assert np.allclose(np.hstack([a_hat, b_hat]), theta, atol=1e-10)


def test_identification_rank_error():
    ds = pointwise_dataset(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 0)),
                           np.eye(2), N=10, seed=6)
    broken = dataclasses.replace(ds, U=ds.X[:1, :].copy())
    with pytest.raises(RankError):
        identify_least_squares(broken)


def test_identified_gains_are_stable_on_benchmark(bench_model, bench_graph,
                                                  bench_datasets):
    gains = build_identified_gains(bench_datasets, [node.B_p for node in bench_model.nodes],
                                   bench_graph, DesignSection(gamma_override=BENCH_GAMMA))
    assert gains.method == "id"
    assert spectral_abscissa(coupling_matrix(gains.E_obs, gains.K, bench_graph.laplacian)) < 0


@pytest.mark.parametrize("seed, rtol", [(None, 1e-10), (1, 1e-6), (2, 1e-6), (3, 1e-6)],
                         ids=["preset", "sweep-1", "sweep-2", "sweep-3"])
def test_data_and_id_gains_tie(seed, rtol):
    """The data and id designs give the same gains (ROADMAP item 6).

    Both regress Xdot on [U; X] and decouple with H = B_p (C B_p)^+, which
    depends only on span(B_p); the data path's recovered basis spans the
    granted B_p, so the two differ by rounding only: about 1e-14 relative
    on the preset and at most 1e-8 on the design-sweep plants.  This is
    why Table 1's data and id rows tie.  A baseline made to differ from
    the data design replaces this test on purpose.
    """
    raws = [{}] if seed is None else [sweep_plant_config(seed, p) for p in range(5)]
    for raw in raws:
        cfg = parse_config(raw)
        model, graph = cfg.build_model(), cfg.build_graph()
        datasets = collect_all_nodes(cfg, model, cfg.seed)
        data, ident = (design_for_method(m, cfg, model, graph, datasets) for m in ("data", "id"))
        assert data.leader == ident.leader
        assert abs(data.gamma - ident.gamma) <= rtol * abs(ident.gamma)
        for field in ("E_obs", "F", "L", "H"):
            for a, b in zip(getattr(data, field), getattr(ident, field)):
                assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b), field


def _result_with_error(error_of_t, horizon=1.0, dt=1e-3, m_nodes=2):
    t = np.arange(int(round(horizon / dt)) + 1) * dt
    e = error_of_t(t)
    x = np.zeros((t.size, 3))
    err = np.tile(np.abs(e)[:, None], (1, m_nodes))
    # every node holds the same estimate
    return RunResult(t=t, x=x, error_norms=err, spread=np.zeros(t.size))


def test_metrics_trivial_cases():
    res0 = _result_with_error(lambda t: np.zeros_like(t))
    m0 = compute_mse_mae(res0)
    assert m0.mse == 0.0 and m0.mae == 0.0

    res_c = _result_with_error(lambda t: 0.7 * np.ones_like(t))
    mc = compute_mse_mae(res_c)
    assert mc.mse == pytest.approx(0.49, rel=1e-12)
    assert mc.mae == pytest.approx(0.7, rel=1e-12)


def test_metrics_linear_decay_analytic():
    # |e| = 1 - t on [0, 1]: integral of (1-t)^2 is 1/3, of (1-t) is 1/2
    res = _result_with_error(lambda t: 1.0 - t)
    m = compute_mse_mae(res)
    assert m.mse == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert m.mae == pytest.approx(0.5, abs=1e-9)


def test_metrics_empty_run():
    res = _result_with_error(lambda t: t)
    short = RunResult(t=res.t[:1], x=res.x[:1], error_norms=res.error_norms[:1],
                      spread=res.spread[:1])
    with pytest.raises(EmptyRunError):
        compute_mse_mae(short)


@pytest.fixture(scope="module")
def small_compare_config():
    return parse_config({"run": {"horizon": 5.0, "dt": 2e-3},
                         "compare": {"K": 2},
                         "design": {"gamma_override": BENCH_GAMMA}})


def test_monte_carlo_deterministic(small_compare_config):
    a = monte_carlo_compare(small_compare_config, K=2, master_seed=11)
    b = monte_carlo_compare(small_compare_config, K=2, master_seed=11)
    for sa, sb in zip(a, b):
        assert sa.mse == sb.mse
        assert sa.mae == sb.mae
        assert np.array_equal(sa.per_experiment_mse, sb.per_experiment_mse)
    c = monte_carlo_compare(small_compare_config, K=2, master_seed=12)
    assert any(ca.mse != cb.mse for ca, cb in zip(a, c))


def test_monte_carlo_aggregation_identity(small_compare_config):
    summaries = monte_carlo_compare(small_compare_config, K=3, master_seed=21)
    for s in summaries:
        assert s.mse == pytest.approx(s.per_experiment_mse.mean(), rel=1e-15)
        assert s.mae == pytest.approx(s.per_experiment_mae.mean(), rel=1e-15)
        assert s.experiments == 3


def test_experiment_metrics_match_one_run_per_design(small_compare_config):
    cfg = small_compare_config
    model, graph = cfg.build_model(), cfg.build_graph()
    datasets = collect_all_nodes(cfg, model, 8)
    designs = [design_for_method(m, cfg, model, graph, datasets) for m in cfg.compare.methods]
    x0 = cfg.draw_x0(9)
    for gains in designs:
        got = compute_mse_mae(run_experiment(cfg, model, graph, gains, 9))
        want = compute_mse_mae(run(model, graph, gains, x0, cfg.build_inputs(9),
                                   cfg.build_disturbances(9), horizon=cfg.run.horizon,
                                   dt=cfg.run.dt,
                                   z0=cfg.initial_observer_states(x0, model, gains)))
        assert (got.mse, got.mae) == (want.mse, want.mae)
        assert np.array_equal(got.mse_per_node, want.mse_per_node)
        assert np.array_equal(got.mae_per_node, want.mae_per_node)


def test_compare_never_computes_the_spread_and_run_computes_it_by_chunk(
        monkeypatch, tmp_path, small_compare_config):
    cfg = small_compare_config
    spread_rows = observer_sim._spread_rows

    def refuse(xhat, out):
        raise AssertionError("spread computed")
    monkeypatch.setattr(observer_sim, "_spread_rows", refuse)
    summaries = monte_carlo_compare(cfg, K=1, master_seed=11)
    assert [s.method for s in summaries] == list(cfg.compare.methods)
    # run computes it, through the same helper, as it streams the estimates
    model, graph = cfg.build_model(), cfg.build_graph()
    gains = design_for_method("model", cfg, model, graph)
    with pytest.raises(AssertionError, match="^spread computed$"):
        with xhat_writer(tmp_path / "refused") as xhat_file:
            run_experiment(cfg, model, graph, gains, 9, xhat_file)
    assert not (tmp_path / "refused").exists()
    rows = []

    def counted(xhat, out):
        rows.append(xhat.shape[0])
        return spread_rows(xhat, out)
    monkeypatch.setattr(observer_sim, "_spread_rows", counted)
    with xhat_writer(tmp_path / "run") as xhat_file:
        res = run_experiment(cfg, model, graph, gains, 9, xhat_file)
    export_run(res, tmp_path / "run")
    assert res.summary()["final_spread"] == res.spread[-1] > 0.0
    # once per chunk of the pass, never on a whole run's estimates
    assert rows == [DRIVE_ROWS, res.t.size - DRIVE_ROWS]
    assert np.load(tmp_path / "run" / "spread.npy").tobytes() == res.spread.tobytes()


def _peak_bytes(call) -> int:
    """tracemalloc's peak over ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_holds_one_run_at_a_time():
    three = parse_config({})
    one = parse_config({"compare": {"methods": ["model"]}})
    assert len(three.compare.methods) == 3

    def peak(cfg):
        return _peak_bytes(lambda: monte_carlo_compare(cfg, K=1, master_seed=3))

    # scoring a run keeps nothing of it, so the next network's integration
    # starts with one run's arrays freed
    assert peak(three) - peak(one) <= 2 ** 20


def _sweep_compare_config():
    """A design-sweep plant (n_x 16, M 8) under active online signals, run for
    two chunks and a part."""
    raw = sweep_plant_config(1, 0)
    n_inputs = len(raw["plant"]["inputs"])
    raw["plant"]["inputs"] = [{"kind": "sinusoid", "amplitude": 1.0, "frequency": 0.5 + k}
                              for k in range(n_inputs)]
    raw["plant"]["disturbances"] = [{"kind": "piecewise-constant-random", "low": -1.0,
                                     "high": 1.0, "hold": 0.05}]
    raw["run"] = {"horizon": 4.5, "dt": 1e-3}
    return parse_config(raw)


@pytest.mark.parametrize("plant", ["preset", "sweep"])
def test_compare_folds_the_metrics_of_each_run(plant):
    # compare folds every network's MSE and MAE chunk by chunk from the pass;
    # they are compute_mse_mae of the same experiment's runs, to rounding
    cfg = parse_config({}) if plant == "preset" else _sweep_compare_config()
    model, graph = cfg.build_model(), cfg.build_graph()
    summaries = monte_carlo_compare(cfg, K=1, master_seed=7)
    seed = baselines._derived_seed(7, 1000)
    datasets = collect_all_nodes(cfg, model, seed)
    designs = [design_for_method(m, cfg, model, graph, datasets) for m in cfg.compare.methods]
    runs = (compute_mse_mae(run_experiment(cfg, model, graph, g, seed)) for g in designs)
    folded = experiment_metrics(cfg, model, graph, designs, seed)
    count = 0
    for summary, got, want in zip(summaries, folded, runs):
        for stat in ("mse", "mae", "mse_per_node", "mae_per_node"):
            np.testing.assert_allclose(getattr(got, stat), getattr(want, stat), rtol=1e-12,
                                       atol=0.0, err_msg=stat)
        assert (summary.per_experiment_mse[0], summary.per_experiment_mae[0]) == \
            (got.mse, got.mae)
        count += 1
    assert count == len(cfg.compare.methods) == 3


def test_compare_peak_memory_holds_no_full_length_network_array():
    # a preset K=1 compare keeps one run's plant states and signal table;
    # every network's estimates and error norms live one chunk at a time
    peak = _peak_bytes(lambda: monte_carlo_compare(parse_config({}), K=1, master_seed=3))
    assert peak < 9 * 2 ** 20


def test_compare_samples_each_online_signal_once_per_experiment(monkeypatch,
                                                                small_compare_config):
    made = []
    for name in ("build_inputs", "build_disturbances"):
        def counted(self, seed, _build=getattr(ExperimentConfig, name)):
            gens = [CountedSignal(g) for g in _build(self, seed)]
            made.extend(gens)
            return gens
        monkeypatch.setattr(ExperimentConfig, name, counted)
    assert len(small_compare_config.compare.methods) == 3
    monte_carlo_compare(small_compare_config, K=2, master_seed=11)
    model = small_compare_config.build_model()
    assert len(made) == 2 * (model.n_u + model.n_d)
    assert [g.calls for g in made] == [1] * len(made)


def test_data_design_without_a_detectable_node_fails(monkeypatch, bench_graph,
                                                     bench_datasets):
    import dduio.baselines as baselines
    analyze = baselines.analyze_datasets

    def undetectable(views, **kw):
        reports, _ = analyze(views, **kw)
        return [dataclasses.replace(r, detectable=False) for r in reports], None
    monkeypatch.setattr(baselines, "analyze_datasets", undetectable)
    with pytest.raises(DesignError, match="detectability"):
        baselines.design_for_method("data", parse_config({}), None, bench_graph,
                                    bench_datasets)


def test_comparison_table_files(tmp_path, small_compare_config):
    summaries = monte_carlo_compare(small_compare_config, K=2, master_seed=31)
    write_comparison_table(summaries, tmp_path)
    csv = (tmp_path / "table1.csv").read_text()
    assert csv.splitlines()[0] == "method,mse,mae"
    assert len(csv.splitlines()) == 4
    md = (tmp_path / "table1.md").read_text()
    assert md.count("|") >= 15


def test_quadrature_refinement(bench_model, bench_graph, model_gains):
    from dduio.observer_sim import run
    x0 = np.array([0.5, -0.1, 0.7, -0.3])
    values = []
    for dt in (2e-3, 1e-3):
        inputs, dist = bench_signals(17, 18, dt)
        res = run(bench_model, bench_graph, model_gains, x0, inputs, dist,
                  horizon=20.0, dt=dt)
        values.append(compute_mse_mae(res).mse)
    assert abs(values[0] - values[1]) / values[1] < 0.005


def test_fold_metrics_of_odd_chunks_on_an_uneven_grid_match_scipy_trapezoid():
    # the fold sums one weight product per chunk; chunks split at odd rows (one
    # of them a single row) on a grid of uneven steps give the (1/T) trapezoid
    # integrals of the squared and absolute norms to 1e-13, relative
    rng = np.random.default_rng(11)
    rows = 5001
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(2e-4, 1.8e-3, rows - 1))])
    norms = np.abs(rng.standard_normal((rows, 4))) * np.exp(-t)[:, None]
    cuts = [0, 1, 2, 7, 1023, 2049, 3001, rows]
    m = baselines._fold_metrics(t, [(a, norms[a:b]) for a, b in zip(cuts, cuts[1:])])
    for got, integrand in ((m.mse_per_node, norms ** 2), (m.mae_per_node, norms)):
        want = scipy.integrate.trapezoid(integrand, t, axis=0) / t[-1]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert (m.mse, m.mae) == (float(m.mse_per_node.mean()), float(m.mae_per_node.mean()))


def test_metrics_match_scipy_trapezoid(bench_model, bench_graph, model_gains):
    # 2001 samples: scipy's own sum drifts by up to ~8e-15 of the exact
    # trapezoid at 5001, too close to the bound to say which side is off.
    from dduio.observer_sim import run
    inputs, dist = bench_signals(17, 18, 1e-3)
    res = run(bench_model, bench_graph, model_gains, np.array([0.5, -0.1, 0.7, -0.3]),
              inputs, dist, horizon=2.0, dt=1e-3)
    # the same samples on a grid of uneven steps between 0.2 and 1.8 ms
    steps = np.random.default_rng(5).uniform(2e-4, 1.8e-3, res.t.size - 1)
    uneven = dataclasses.replace(res, t=np.concatenate([[0.0], np.cumsum(steps)]))
    for case in (res, uneven):
        m = compute_mse_mae(case)
        horizon = case.t[-1]
        for got, integrand in ((m.mse_per_node, case.error_norms ** 2),
                               (m.mae_per_node, case.error_norms)):
            want = scipy.integrate.trapezoid(integrand, case.t, axis=0) / horizon
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert m.mse == pytest.approx(float(np.mean(m.mse_per_node)), rel=1e-15)
