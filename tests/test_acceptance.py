"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line (visible with -s) naming the criterion;
a failed assertion marks the criterion red.
"""
import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import yaml

from dduio.baselines import monte_carlo_compare
from dduio.cli import main
from dduio.config import parse_config
from dduio.datagen import check_compatibility
from dduio.design_data import analyze_node, check_data_solvability
from dduio.design_model import check_detectability, gamma_lower_bound, rank_condition
from dduio.linalg import spectral_abscissa
from dduio.network import build_laplacian
from dduio.observer_sim import run, verify_decoupling
from dduio.plant import simulate
from dduio.signals import Zero

from conftest import (BENCH, BENCH_GAMMA, bench_signals, coupling_matrix, online_sample,
                      pointwise_dataset, random_connected_graph,
                      random_node_system, single_node_model)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        within = elapsed < self.seconds
        status = "PASS" if exc_type is None and within else "FAIL"
        print(f"\nACCEPTANCE {status} [{self.name}] ({elapsed:.2f}s / "
              f"budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert within, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_1_decoupling_identities(bench_model, model_gains, data_gains):
    with _Budget("1 decoupling identities", 1.0):
        for gains in (model_gains, data_gains):
            report = verify_decoupling(bench_model, gains)
            assert report.max_residual < 1e-6


def test_criterion_2_unknown_input_insensitivity(bench_model, bench_graph,
                                                 data_gains):
    with _Budget("2 unknown-input insensitivity", 10.0):
        x0 = np.array([0.45, -0.35, 0.25, 0.65])
        inputs, dist = bench_signals(41, 42, 1e-3)
        res_a = run(bench_model, bench_graph, data_gains, x0,
                    inputs, dist, horizon=10.0, dt=1e-3)
        res_b = run(bench_model, bench_graph, data_gains, x0,
                    [inputs[0], Zero()], [Zero()], horizon=10.0, dt=1e-3)
        e_a = res_a.x[:, None, :] - res_a.xhat
        e_b = res_b.x[:, None, :] - res_b.xhat
        assert np.abs(e_a - e_b).max() < 1e-8


def test_criterion_3_data_tests_agree_with_model_tests():
    with _Budget("3 rank-test/model-test agreement over 50 systems", 30.0):
        kinds = (["generic"] * 20 + ["annihilating"] * 10
                 + ["hidden-unstable"] * 10 + ["hidden-stable"] * 10)
        rng = np.random.default_rng(90210)
        solvable_seen, unsolvable_seen = 0, 0
        detect_true, detect_false = 0, 0
        for trial, kind in enumerate(kinds):
            a, b_m, b_p, c = random_node_system(rng, kind)
            model = single_node_model(a, b_m, b_p, c)
            n_min = b_m.shape[1] + b_p.shape[1] + a.shape[0]
            ds = pointwise_dataset(a, b_m, b_p, c, N=n_min + 12,
                                   seed=7000 + trial)
            holds, _, _ = check_data_solvability(ds)
            assert holds == rank_condition(model.nodes[0].C, model.nodes[0].B_p)
            if holds:
                solvable_seen += 1
                data_detect = analyze_node(ds, test_detectability=True).detectable
                model_detect = check_detectability(model, 0)
                assert data_detect == model_detect
                detect_true += model_detect
                detect_false += not model_detect
            else:
                unsolvable_seen += 1
        # the instance mix must exercise every outcome
        assert solvable_seen and unsolvable_seen
        assert detect_true and detect_false


def test_criterion_4_gain_equivalence(model_gains, data_gains):
    with _Budget("4 noise-free data gains match model gains", 5.0):
        assert data_gains.leader == model_gains.leader
        assert data_gains.gamma == model_gains.gamma
        for i in range(model_gains.M):
            for field in ("E_obs", "F", "L", "H", "K"):
                a = getattr(model_gains, field)[i]
                b = getattr(data_gains, field)[i]
                assert np.linalg.norm(a - b) < 1e-6, (field, i)


def test_criterion_5_stability_above_gamma_bound(bench_model, bench_graph,
                                                 model_gains):
    with _Budget("5 coupled stability above the gain bound", 30.0):
        rng = np.random.default_rng(5150)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 4))
            graph = random_connected_graph(rng, m)
            bundle = build_laplacian(graph)
            followers = [3.0 * rng.normal(size=(n, n)) for _ in range(m - 1)]
            leader = rng.normal(size=(n, n))
            leader -= (spectral_abscissa(leader) + 0.3) * np.eye(n)
            gamma = max(1.001 * gamma_lower_bound(followers,
                                                  bundle.lambda_min_reduced), 1e-3)
            e_blocks = [leader] + followers
            k_blocks = [np.zeros((n, n))] + [gamma * np.eye(n)] * (m - 1)
            absc = spectral_abscissa(
                coupling_matrix(e_blocks, k_blocks, bundle.laplacian))
            assert absc < 0
        lap = build_laplacian(bench_graph).laplacian
        assert model_gains.gamma == 5.0
        absc = spectral_abscissa(
            coupling_matrix(model_gains.E_obs, model_gains.K, lap))
        assert absc < 0


def test_criterion_6_benchmark_convergence(bench_model, bench_graph, data_gains):
    with _Budget("6 benchmark convergence and disturbance robustness", 60.0):
        x0 = np.array([0.52, -0.61, 0.33, 0.27])
        horizon, dt = BENCH.run.horizon, 1e-3

        def one_run(with_disturbance):
            inputs, dist = bench_signals(61, 62, dt, active=with_disturbance)
            return run(bench_model, bench_graph, data_gains, x0, inputs, dist,
                       horizon=horizon, dt=dt)

        res_clean = one_run(False)
        assert res_clean.final_error_norms.max() < 1e-2
        assert res_clean.final_spread < 1e-2

        res_noisy = one_run(True)
        tail = res_clean.t >= 30.0
        avg_clean = res_clean.error_norms[tail].mean()
        avg_noisy = res_noisy.error_norms[tail].mean()
        assert avg_noisy < 10.0 * max(avg_clean, 1e-15)


def test_criterion_7_comparison_ordering():
    with _Budget("7 Monte-Carlo comparison ordering", 300.0):
        cfg = parse_config({"design": {"gamma_override": BENCH_GAMMA}})
        summaries = monte_carlo_compare(cfg, K=10, master_seed=777)
        by_method = {s.method: s for s in summaries}
        mse_model = by_method["model"].mse
        mse_data = by_method["data"].mse
        mse_id = by_method["id"].mse
        # noise-free offline data make the designs coincide to rounding,
        # so the ordering is asserted up to a relative tie tolerance
        tie = 1e-9
        assert mse_model <= mse_data * (1 + tie)
        assert mse_data <= mse_id * (1 + tie)
        assert mse_model > 0
        assert (mse_data - mse_model) / mse_model < 0.25


def test_criterion_8_reduced_laplacian_certificates():
    with _Budget("8 reduced-Laplacian positive definiteness", 5.0):
        rng = np.random.default_rng(888)
        for _ in range(100):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            bundle = build_laplacian(g)
            assert bundle.lambda_min_reduced > 0
            assert np.abs(bundle.laplacian.sum(axis=0)).max() <= 1e-12
            assert np.abs(bundle.laplacian.sum(axis=1)).max() <= 1e-12


def test_criterion_9_online_compatibility(bench_model, bench_datasets):
    with _Budget("9 online-sample compatibility", 20.0):
        ds = bench_datasets[0]
        inputs, dist = bench_signals(91, 92, 1e-2)
        traj = simulate(bench_model, [0.35, -0.15, 0.55, 0.05], inputs, dist,
                        horizon=4.0, dt=1e-2)
        for k in range(1, 401, 2):
            ok, residual = check_compatibility(
                ds, online_sample(bench_model, traj, 0, k))
            assert ok and residual < 1e-8

        perturbed = dataclasses.replace(bench_model,
                                        A=bench_model.A + 0.5 * np.eye(4))
        traj_p = simulate(perturbed, [0.35, -0.15, 0.55, 0.05],
                          *bench_signals(91, 92, 1e-2),
                          horizon=4.0, dt=1e-2)
        rejected = 0
        total = 200
        for k in range(1, 401, 2):
            ok, _ = check_compatibility(
                ds, online_sample(perturbed, traj_p, 0, k))
            rejected += not ok
        assert rejected >= 0.95 * total


def test_criterion_10_cli_determinism(tmp_path):
    with _Budget("10 byte-identical CLI reruns", 120.0):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "seed": 99,
            "run": {"horizon": 2.0, "dt": 2e-3},
            "compare": {"K": 1},
            "design": {"gamma_override": BENCH_GAMMA},
        }))

        def tree(root):
            found = {}
            for base, _, files in os.walk(root):
                for f in files:
                    p = os.path.join(base, f)
                    found[os.path.relpath(p, root)] = Path(p).read_bytes()
            return found

        trees = {}
        for tag in ("a", "b"):
            root = tmp_path / tag
            ds = root / "ds"
            gains = root / "gains.json"
            runoff = root / "run"
            cmp_dir = root / "cmp"
            assert main(["collect", "--config", str(cfg_path), "--out", str(ds)]) == 0
            assert main(["design", "--config", str(cfg_path), "--method", "data",
                         "--data", str(ds), "--out", str(gains)]) == 0
            assert main(["run", "--config", str(cfg_path), "--gains", str(gains),
                         "--out", str(runoff)]) == 0
            assert main(["compare", "--config", str(cfg_path), "--out",
                         str(cmp_dir), "--k", "1"]) == 0
            trees[tag] = tree(root)
        assert trees["a"].keys() == trees["b"].keys()
        for name in trees["a"]:
            assert trees["a"][name] == trees["b"][name], name
