"""Offline collection, data richness, compatibility, and serialization."""
import dataclasses
import filecmp
import os

import numpy as np
import pytest

from dduio.datagen import (DataSection, NodeDataset, check_compatibility,
                           check_excitation_rank, collect, load_dataset, save_dataset)
from dduio.errors import ExcitationError, OracleUnavailableError
from dduio.plant import simulate
from dduio.signals import Zero

from conftest import (bench_signals, online_sample, pointwise_dataset,
                      single_node_model)


def excitation_rows(ds):
    """n_m + r + n_x, the rows of [U; W; X] that full excitation must span."""
    return ds.n_m + ds.W_validation.shape[0] + ds.n_x


def test_benchmark_collection_satisfies_rank(bench_datasets):
    for ds in bench_datasets:
        report = check_excitation_rank(ds)
        assert report.rank == excitation_rows(ds) == 7


def test_generation_identities(bench_model, bench_datasets):
    for i, ds in enumerate(bench_datasets):
        node = bench_model.nodes[i]
        resid = ds.Xdot - (bench_model.A @ ds.X + node.B_m @ ds.U
                           + node.B_p @ ds.W_validation)
        assert np.abs(resid).max() < 1e-10
        assert np.abs(ds.Ydot - node.C @ ds.Xdot).max() < 1e-10
        assert np.abs(ds.Y - node.C @ ds.X).max() < 1e-10


def test_scalar_system_two_samples():
    model = single_node_model([[0.0]], [[1.0]], np.zeros((1, 0)), [[1.0]])
    ds = collect(model, 0, DataSection(N=2), seed=11)
    assert ds.N == 2
    report = check_excitation_rank(ds)
    assert report.rank == excitation_rows(ds) == 2


def test_constant_excitation_fails(bench_model):
    # A zero disturbance leaves the W rows rank-deficient on every attempt.
    with pytest.raises(ExcitationError) as err:
        collect(bench_model, 0, DataSection(N=50, d_amplitude=0.0), seed=3)
    assert "W" in str(err.value)


def test_sample_count_bound(bench_model):
    with pytest.raises(ExcitationError):
        collect(bench_model, 0, DataSection(N=3), seed=1)


def test_duplicate_columns_keep_rank(bench_datasets):
    ds = bench_datasets[0]
    doubled = NodeDataset(
        U=np.hstack([ds.U, ds.U]), Y=np.hstack([ds.Y, ds.Y]),
        Ydot=np.hstack([ds.Ydot, ds.Ydot]), X=np.hstack([ds.X, ds.X]),
        Xdot=np.hstack([ds.Xdot, ds.Xdot]),
        W_validation=np.hstack([ds.W_validation, ds.W_validation]),
        sample_times=np.concatenate([ds.sample_times, ds.sample_times]),
        node_index=ds.node_index, seed=ds.seed)
    report = check_excitation_rank(doubled)
    assert report.rank == excitation_rows(doubled) == 7


def test_compatibility_member_and_online(bench_model, bench_datasets):
    ds = bench_datasets[0]
    member = (ds.U[:, 3], ds.Y[:, 3], ds.Ydot[:, 3], ds.X[:, 3], ds.Xdot[:, 3])
    ok, residual = check_compatibility(ds, member)
    assert ok and residual < 1e-12

    inputs, dist = bench_signals(5, 6, 1e-2)
    traj = simulate(bench_model, [0.4, -0.3, 0.2, 0.6], inputs, dist,
                    horizon=2.0, dt=1e-2)
    for k in (10, 50, 150):
        ok, residual = check_compatibility(ds, online_sample(bench_model, traj, 0, k))
        assert ok and residual < 1e-8


def test_compatibility_rejects_perturbed_plant(bench_model, bench_datasets):
    perturbed = dataclasses.replace(bench_model, A=bench_model.A + 0.5 * np.eye(4))
    inputs, _ = bench_signals(5, 6, 1e-2)
    traj = simulate(perturbed, [0.4, -0.3, 0.2, 0.6], inputs, [Zero()],
                    horizon=2.0, dt=1e-2)
    fails = 0
    checks = 40
    for k in range(5, 5 + checks):
        ok, _ = check_compatibility(bench_datasets[0],
                                    online_sample(perturbed, traj, 0, k * 4))
        fails += not ok
    assert fails >= 0.95 * checks


def test_restarts_and_jitter_modes(bench_model):
    ds_r = collect(bench_model, 0, DataSection(N=20, restarts=4), seed=21)
    assert ds_r.N == 20 and check_excitation_rank(ds_r).rank == excitation_rows(ds_r)
    ds_j = collect(bench_model, 0, DataSection(N=20, jitter=True), seed=22)
    assert ds_j.N == 20 and check_excitation_rank(ds_j).rank == excitation_rows(ds_j)
    assert not np.allclose(np.diff(ds_j.sample_times), ds_j.sample_times[1])


@pytest.mark.parametrize("restarts", [2, 25, 50])
def test_each_restart_segment_draws_its_own_excitation(bench_model, restarts):
    # every segment restarts at t = 0, so segments sharing generators would
    # replay one another's inputs, and 25 or 50 of them could not reach full
    # excitation rank
    for i in range(bench_model.M):
        ds = collect(bench_model, i, DataSection(N=50, restarts=restarts), seed=7)
        assert len(np.unique(ds.U)) == ds.N
        assert check_excitation_rank(ds).rank == excitation_rows(ds)


def test_output_noise_flag(bench_model):
    ds = collect(bench_model, 0, DataSection(N=50, noise_amplitude=1e-3), seed=23)
    node = bench_model.nodes[0]
    err = np.abs(ds.Y - node.C @ ds.X).max()
    assert 0 < err <= 1e-3
    # state-side identities stay exact
    resid = ds.Xdot - (bench_model.A @ ds.X + node.B_m @ ds.U
                       + node.B_p @ ds.W_validation)
    assert np.abs(resid).max() < 1e-10


def test_rank_check_requires_ground_truth(bench_datasets):
    with pytest.raises(OracleUnavailableError):
        check_excitation_rank(bench_datasets[0].design_view())


def test_collect_deterministic(bench_model):
    a = collect(bench_model, 1, DataSection(N=30), seed=9)
    b = collect(bench_model, 1, DataSection(N=30), seed=9)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.W_validation, b.W_validation)


def test_roundtrip_bit_exact(tmp_path, bench_datasets):
    ds = bench_datasets[2]
    d1 = tmp_path / "ds1"
    d2 = tmp_path / "ds2"
    save_dataset(ds, d1)
    loaded = load_dataset(d1)
    for name in ("U", "Y", "Ydot", "X", "Xdot"):
        assert np.array_equal(getattr(ds, name), getattr(loaded, name))
    assert np.array_equal(ds.sample_times, loaded.sample_times)
    assert loaded.W_validation is None
    save_dataset(loaded, d2)
    for f in os.listdir(d1):
        assert filecmp.cmp(d1 / f, d2 / f, shallow=False), f


def test_empty_channel_serialization(tmp_path):
    model = single_node_model([[0.0]], [[1.0]], np.zeros((1, 0)), [[1.0]])
    ds = collect(model, 0, DataSection(N=4), seed=2)
    save_dataset(ds, tmp_path / "scalar")
    loaded = load_dataset(tmp_path / "scalar")
    assert loaded.U.shape == (1, 4)
    assert np.array_equal(loaded.X, ds.X)


def test_pointwise_dataset_is_valid_offline_data():
    rng_a = np.array([[0.0, 1.0], [-1.0, -0.4]])
    ds = pointwise_dataset(rng_a, np.array([[0.0], [1.0]]),
                           np.array([[1.0], [0.0]]), np.eye(2), N=20, seed=4)
    assert check_excitation_rank(ds).rank == excitation_rows(ds)
    member = (ds.U[:, 0], ds.Y[:, 0], ds.Ydot[:, 0], ds.X[:, 0], ds.Xdot[:, 0])
    ok, _ = check_compatibility(ds, member)
    assert ok


def test_excitation_rank_uses_the_shared_rank_rule(bench_datasets):
    from dduio.linalg import numerical_rank
    for ds in bench_datasets:
        stack = np.vstack([ds.U, ds.W_validation, ds.X])
        assert check_excitation_rank(ds).rank == numerical_rank(stack)
        assert check_excitation_rank(ds, 1e13).rank == numerical_rank(stack, 1e13)
