"""Data-driven design: rank tests, recovery, the data equation, assembly."""
import dataclasses
import sys

import numpy as np
import pytest
import scipy.linalg

import dduio.design_data as design_data
from dduio import linalg
from dduio.baselines import collect_all_nodes
from dduio.config import parse_config
from dduio.design_data import (analyze_datasets, analyze_node, build_data_driven_gains,
                               check_data_detectability, check_data_solvability,
                               recover_output_map, solve_data_equation_structured)
from dduio.design_model import (DesignSection, check_detectability, decoupling_gain,
                                rank_condition)
from dduio.errors import ConsistencyError, DesignError, RankError
from dduio.linalg import (DETECT_TOL, decide_rank, numerical_rank, pbh_detectable,
                          spectral_abscissa)

from conftest import (BENCH_GAMMA, bench_signals, coupling_matrix, load_bench_module,
                      pointwise_dataset, single_node_model)

sweep_plant_config = load_bench_module("workloads").sweep_plant_config


def min_norm_solution(ds):
    """Minimum-norm T with Xdot = T [U; Ydot; X], and the projector I - S S^+.

    Every T + Z (I - S S^+) solves the same equation.
    """
    stack = np.vstack([ds.U, ds.Ydot, ds.X])
    stack_pinv = decide_rank(stack, pinv=True).pinv
    return ds.Xdot @ stack_pinv, np.eye(stack.shape[0]) - stack @ stack_pinv


def record_solve_calls(monkeypatch):
    """Count calls of the structured solve made through the module global."""
    solve = design_data.solve_data_equation_structured
    calls = []
    monkeypatch.setattr(design_data, "solve_data_equation_structured",
                        lambda *args, **kw: calls.append(1) or solve(*args, **kw))
    return calls


def test_solvability_benchmark_nodes(bench_datasets):
    for ds in bench_datasets:
        lhs, rhs = check_data_solvability(ds)
        assert lhs.rank == rhs.rank == 7
        # the spectra returned are the ones the two ranks were read from
        spectra = {"U;Ydot;X": lhs.singular_values, "U;X;Xdot": rhs.singular_values}
        for name, stack in (("U;Ydot;X", np.vstack([ds.U, ds.Ydot, ds.X])),
                            ("U;X;Xdot", np.vstack([ds.U, ds.X, ds.Xdot]))):
            assert spectra[name].tobytes() == decide_rank(stack).singular_values.tobytes()
        assert list(analyze_node(ds).ranks)[:2] == ["U;Ydot;X", "U;X;Xdot"]


def test_solvability_without_unknown_channels():
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    ds = pointwise_dataset(a, [[0.0], [1.0]], np.zeros((2, 0)), np.eye(2),
                           N=20, seed=1)
    lhs, rhs = check_data_solvability(ds)
    assert lhs.rank == rhs.rank == 3
    assert analyze_node(ds).r_inferred == 0


def test_solvability_fails_when_output_blind_to_unknown():
    # C annihilates the unknown-input direction e1
    a = np.array([[0.1, 0.4], [-0.6, 0.2]])
    ds = pointwise_dataset(a, np.zeros((2, 0)), [[1.0], [0.0]], [[0.0, 1.0]],
                           N=20, seed=2)
    lhs, rhs = check_data_solvability(ds)
    assert lhs.rank < rhs.rank
    # an unsolvable node reports only the two spectra its test used
    assert analyze_node(ds).ranks.keys() == {"U;Ydot;X", "U;X;Xdot"}


@pytest.mark.parametrize("solvable", [True, False])
def test_report_stores_the_records_decide_rank_returned(monkeypatch, bench_datasets, solvable):
    # each report entry is the very record decide_rank returned for its
    # matrix, not a copy or a rebuilt one
    if solvable:
        ds = bench_datasets[0].design_view()
    else:
        ds = pointwise_dataset(np.array([[0.1, 0.4], [-0.6, 0.2]]), np.zeros((2, 0)),
                               [[1.0], [0.0]], [[0.0, 1.0]], N=20, seed=2)
    decided = []
    original = design_data.decide_rank

    def recording(a, *args, **kw):
        decided.append((np.ascontiguousarray(a).tobytes(), original(a, *args, **kw)))
        return decided[-1][1]
    monkeypatch.setattr(design_data, "decide_rank", recording)
    report = analyze_node(ds, test_detectability=True)
    stacks = {"U;Ydot;X": np.vstack([ds.U, ds.Ydot, ds.X]),
              "U;X;Xdot": np.vstack([ds.U, ds.X, ds.Xdot]), "X": ds.X}
    assert report.solvable is solvable
    assert list(report.ranks) == list(stacks)[:3 if solvable else 2]
    for name, record in report.ranks.items():
        ranked = [key for key, returned in decided if returned is record]
        assert ranked == [stacks[name].tobytes()], name


def test_recover_output_map_identity_data():
    n_x, n_extra = 3, 5
    rng = np.random.default_rng(3)
    x = np.hstack([np.eye(n_x), rng.normal(size=(n_x, n_extra))])
    c_true = rng.normal(size=(2, n_x))
    y = c_true @ x
    ds_like = dataclasses.replace(
        pointwise_dataset(np.zeros((n_x, n_x)), np.zeros((n_x, 0)),
                          np.zeros((n_x, 0)), c_true, N=n_x + n_extra, seed=4),
        X=x, Y=y)
    assert np.allclose(recover_output_map(ds_like)[0], c_true, atol=1e-10)


def test_recover_output_map_benchmark_node3(bench_model, bench_datasets):
    ds = bench_datasets[2]
    c, x_rank = recover_output_map(ds)
    sv = x_rank.singular_values
    assert np.linalg.norm(c - bench_model.nodes[2].C) < 1e-9
    # one SVD gives the spectrum and a pseudoinverse equal to numpy's, bit for bit
    assert np.allclose(sv, decide_rank(ds.X).singular_values, rtol=1e-13)
    rcond = linalg.DEFAULT_RANK_MULTIPLIER * max(ds.X.shape) * np.finfo(float).eps
    assert c.tobytes() == (ds.Y @ np.linalg.pinv(ds.X, rcond=rcond)).tobytes()
    report = analyze_node(ds)
    assert list(report.ranks) == ["U;Ydot;X", "U;X;Xdot", "X"]
    assert report.ranks["X"].singular_values.tobytes() == sv.tobytes()
    assert report.C_recovered.tobytes() == c.tobytes()


def test_recover_output_map_duplicate_columns(bench_datasets):
    ds = bench_datasets[1]
    doubled = dataclasses.replace(ds, X=np.hstack([ds.X, ds.X]),
                                  Y=np.hstack([ds.Y, ds.Y]),
                                  Ydot=np.hstack([ds.Ydot, ds.Ydot]),
                                  U=np.hstack([ds.U, ds.U]),
                                  Xdot=np.hstack([ds.Xdot, ds.Xdot]),
                                  W_validation=None,
                                  sample_times=np.tile(ds.sample_times, 2))
    assert np.allclose(recover_output_map(doubled)[0], recover_output_map(ds)[0],
                       atol=1e-10)


def test_recover_output_map_rank_error():
    ds = pointwise_dataset(np.zeros((2, 2)), np.zeros((2, 0)), np.zeros((2, 0)),
                           np.eye(2), N=10, seed=5)
    flat = dataclasses.replace(ds, X=np.vstack([ds.X[0], ds.X[0]]))
    with pytest.raises(RankError):
        recover_output_map(flat)


def test_data_equation_scalar_brute_force():
    a, b = -0.8, 1.7
    ds = pointwise_dataset([[a]], [[b]], np.zeros((1, 0)), [[1.0]], N=12, seed=6)
    report = analyze_node(ds)
    # independent oracle: numpy least squares on the transposed system over
    # [U; X], which has full row rank when there is no unknown input
    theta, *_ = np.linalg.lstsq(np.vstack([ds.U, ds.X]).T, ds.Xdot.T, rcond=None)
    expect = theta.T
    assert np.allclose(expect, [[b, a]], atol=1e-10)
    assert report.r_inferred == 0 and np.allclose(report.T_y, 0)
    got = np.hstack([report.T_u, report.T_x])
    assert np.allclose(got, expect, atol=1e-10)
    assert report.residual < 1e-10


def test_data_equation_zero_derivatives():
    ds = pointwise_dataset([[0.0]], [[1.0]], np.zeros((1, 0)), [[1.0]], N=8, seed=7)
    zeroed = dataclasses.replace(ds, Xdot=np.zeros_like(ds.Xdot),
                                 Ydot=np.zeros_like(ds.Ydot))
    report = analyze_node(zeroed)
    assert np.allclose(report.T_u, 0) and np.allclose(report.T_x, 0)
    assert report.residual == pytest.approx(0.0, abs=1e-14)


def test_data_equation_inconsistent_data_raises(bench_datasets):
    ds = bench_datasets[0]
    broken = dataclasses.replace(ds, Ydot=np.zeros_like(ds.Ydot))
    with pytest.raises(ConsistencyError):
        solve_data_equation_structured(broken, 2, recover_output_map(broken)[0])


def test_structured_solution_matches_model_blocks(bench_model, bench_datasets):
    eye = np.eye(4)
    for i, ds in enumerate(bench_datasets):
        node = bench_model.nodes[i]
        h = decoupling_gain(node.C, node.B_p)
        report = analyze_node(ds.design_view())
        t_u, t_y, t_x = report.T_u, report.T_y, report.T_x
        assert report.r_inferred == node.r == 2
        assert report.residual < 1e-8
        assert np.linalg.norm(t_y - h) < 1e-7
        assert np.linalg.norm(t_x - (eye - h @ node.C) @ bench_model.A) < 1e-7
        assert np.linalg.norm(t_u - (eye - h @ node.C) @ node.B_m) < 1e-7
        assert numerical_rank(t_y) == 2


def test_minimum_norm_solution_differs_but_solves(bench_datasets):
    # The stacked data matrix is row-rank deficient, so the minimum-norm
    # representative need not have the unknown-input feedthrough rank.
    ds = bench_datasets[0]
    t_mn, _ = min_norm_solution(ds)
    stack = np.vstack([ds.U, ds.Ydot, ds.X])
    assert np.linalg.norm(ds.Xdot - t_mn @ stack) < 1e-10
    assert numerical_rank(stack) < stack.shape[0]
    t_y_mn = t_mn[:, ds.n_m:ds.n_m + ds.n_y]
    assert numerical_rank(t_y_mn) >= analyze_node(ds).r_inferred


def test_solution_family_membership_and_rank_preserving_members(bench_datasets):
    ds = bench_datasets[0].design_view()
    t_mn, null_proj = min_norm_solution(ds)
    report = analyze_node(ds)
    t_y, t_x, c_rec, r_hat = report.T_y, report.T_x, report.C_recovered, report.r_inferred
    stack = np.vstack([ds.U, ds.Ydot, ds.X])
    eye_y = np.eye(ds.n_y)
    proj = eye_y - c_rec @ t_y     # complement of the feedthrough output range
    known = np.vstack([ds.U, ds.X])
    known_pinv = decide_rank(known, pinv=True).pinv
    base_detectable = pbh_detectable(t_x, c_rec)
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = rng.normal(scale=0.4, size=(ds.n_y, ds.n_y))
        t_y2 = t_y @ (eye_y + g @ proj)
        t_ux2 = (np.eye(ds.n_x) - t_y2 @ c_rec) @ ds.Xdot @ known_pinv
        t2 = np.hstack([t_ux2[:, :ds.n_m], t_y2, t_ux2[:, ds.n_m:]])
        # member of the affine solution family
        assert np.linalg.norm(ds.Xdot - t2 @ stack) < 1e-8
        fam = t_mn + (t2 - t_mn) @ null_proj
        assert np.allclose(fam, t2, atol=1e-8)
        # feedthrough rank preserved, detectability verdict unchanged
        assert numerical_rank(t_y2) == r_hat
        assert pbh_detectable(t_ux2[:, ds.n_m:], c_rec) == base_detectable


def test_detectability_benchmark_leader(bench_model, bench_datasets):
    ds = bench_datasets[0]
    report = analyze_node(ds, test_detectability=True)
    assert report.detectable is True
    assert check_data_detectability(ds, report.T_x, report.r_inferred, None) is True
    assert check_detectability(bench_model, 0)


def _hidden_mode_node(hidden):
    """A node whose mode block ``hidden`` no output sees, next to a seen pair.

    The seen pair carries one decodable unknown input, so the hidden modes
    stay eigenvalues of the recovered error matrix and are its only
    unobservable ones.
    """
    k = len(hidden)
    a = scipy.linalg.block_diag([[0.3, 1.0], [-2.0, 0.1]], hidden)
    b_m = np.ones((2 + k, 1))
    b_p = np.zeros((2 + k, 1))
    b_p[0, 0] = 1.0
    c = np.hstack([np.eye(2), np.zeros((2, k))])
    return a, b_m, b_p, c


@pytest.mark.parametrize("hidden, detectable", [
    ([[0.0]], False),
    ([[0.0, 2.0], [-2.0, 0.0]], False),
    ([[-DETECT_TOL / 2, 2.0], [-2.0, -DETECT_TOL / 2]], False),
    ([[-0.5, 2.0], [-2.0, -0.5]], True),
], ids=["zero", "pair-on-axis", "pair-inside-tolerance", "stable-pair"])
def test_hidden_mode_on_the_axis_is_undetectable(hidden, detectable):
    a, b_m, b_p, c = _hidden_mode_node(hidden)
    ds = pointwise_dataset(a, b_m, b_p, c, N=20, seed=12)
    report = analyze_node(ds, test_detectability=True)
    assert report.r_inferred == 1
    assert report.detectable is detectable
    assert check_detectability(single_node_model(a, b_m, b_p, c), 0) is detectable


def _record_pencils(monkeypatch):
    ranked = []
    rank = design_data.numerical_rank
    monkeypatch.setattr(design_data, "numerical_rank",
                        lambda a, *args: ranked.append(a) or rank(a, *args))
    return ranked


def test_leader_test_ranks_one_pencil_per_candidate_eigenvalue(monkeypatch, bench_datasets):
    # a seen unstable pair, the zero mode the decoupling leaves and a stable
    # hidden pair: the pair and the zero mode are candidates, and the pair
    # costs one pencil, at its member with Im >= 0; the preset leader's two
    # zero modes cost one pencil, whether rounding makes them a conjugate
    # pair or two reals within DETECT_TOL
    a = scipy.linalg.block_diag([[0.2, 2.0], [-2.0, 0.2]], [[-1.0]], [[-0.5, 2.0], [-2.0, -0.5]])
    b_m, b_p = np.ones((5, 1)), np.eye(5)[:, [2]]
    c = np.eye(5)[[0, 2]]
    # a Hurwitz recovered error matrix leaves nothing to rank
    hurwitz = pointwise_dataset([[-1.0, 0.5], [0.0, -2.0]], [[1.0], [1.0]], np.zeros((2, 0)),
                                [[1.0, 0.0]], N=12, seed=14)
    nodes = [pointwise_dataset(a, b_m, b_p, c, N=20, seed=13),
             bench_datasets[0].design_view(), hurwitz]
    for ds, count in zip(nodes, (2, 1, 0)):
        report = analyze_node(ds)
        candidates = []
        for s in np.linalg.eigvals(report.T_x):
            if (s.real >= -DETECT_TOL and s.imag >= 0
                    and all(abs(s - k) > DETECT_TOL for k in candidates)):
                candidates.append(s)
        ranked = _record_pencils(monkeypatch)
        assert check_data_detectability(ds, report.T_x, report.r_inferred, None) is True
        assert len(ranked) == len(candidates) == count
        for s, pencil in zip(candidates, ranked):
            expect = np.vstack([(s * ds.X - ds.Xdot) / max(1.0, abs(s)), ds.U, ds.Y])
            assert np.array_equal(pencil, expect)


@pytest.mark.parametrize("index", range(5))
def test_sweep_plant_data_verdicts_match_the_model(index):
    cfg = parse_config(sweep_plant_config(1, index))
    model = cfg.build_model()
    design = cfg.design
    views = [ds.design_view() for ds in collect_all_nodes(cfg, model, cfg.seed)]
    for i, ds in enumerate(views):
        report = analyze_node(ds, test_detectability=True, rtol=design.residual_rtol,
                              multiplier=design.rank_multiplier)
        assert report.solvable
        assert report.detectable == check_detectability(model, i), i
    leader = next(i for i in range(model.M) if check_detectability(model, i))
    assert analyze_datasets(views, rtol=design.residual_rtol,
                            multiplier=design.rank_multiplier)[1] == leader


def test_detectability_scalar_unstable_blind():
    ds = pointwise_dataset([[1.0]], [[1.0]], np.zeros((1, 0)), [[0.0]], N=10, seed=9)
    assert analyze_node(ds, test_detectability=True).detectable is False


def test_detectability_hurwitz_blind_is_vacuous():
    ds = pointwise_dataset([[-1.0]], [[1.0]], np.zeros((1, 0)), [[0.0]], N=10, seed=10)
    assert analyze_node(ds, test_detectability=True).detectable is True


def test_detectability_requires_solvability(monkeypatch):
    a = np.array([[0.1, 0.4], [-0.6, 0.2]])
    ds = pointwise_dataset(a, np.zeros((2, 0)), [[1.0], [0.0]], [[0.0, 1.0]],
                           N=20, seed=11)
    calls = record_solve_calls(monkeypatch)
    report = analyze_node(ds, test_detectability=True)
    assert report.solvable is False
    assert report.detectable is None
    assert calls == []


@pytest.mark.parametrize("kind", ["generic", "annihilating", "hidden-unstable",
                                  "hidden-stable"])
def test_rank_tests_agree_with_model_conditions(kind):
    from conftest import random_node_system
    rng = np.random.default_rng(abs(hash(kind)) % 2**32)
    for trial in range(5):
        a, b_m, b_p, c = random_node_system(rng, kind)
        model = single_node_model(a, b_m, b_p, c)
        ds = pointwise_dataset(a, b_m, b_p, c,
                               N=b_m.shape[1] + b_p.shape[1] + a.shape[0] + 10,
                               seed=1000 + trial)
        lhs, rhs = check_data_solvability(ds)
        holds = lhs.rank == rhs.rank
        assert holds == rank_condition(model.nodes[0].C, model.nodes[0].B_p)
        if holds:
            detectable = analyze_node(ds, test_detectability=True).detectable
            assert detectable == check_detectability(model, 0)


def test_build_gains_matches_model_based(bench_graph, model_gains, data_gains):
    assert data_gains.leader == model_gains.leader
    for i in range(5):
        assert np.linalg.norm(data_gains.E_obs[i] - model_gains.E_obs[i]) < 1e-6
        assert np.linalg.norm(data_gains.H[i] - model_gains.H[i]) < 1e-6
        assert np.linalg.norm(data_gains.F[i] - model_gains.F[i]) < 1e-6
        assert np.linalg.norm(data_gains.L[i] - model_gains.L[i]) < 1e-6
        assert np.allclose(data_gains.K[i], model_gains.K[i])
    assert spectral_abscissa(coupling_matrix(data_gains.E_obs, data_gains.K,
                                             bench_graph.laplacian)) < 0


def test_build_gains_preconditions(bench_datasets, bench_graph):
    views = [ds.design_view() for ds in bench_datasets]
    reports, leader = analyze_datasets(views)
    assert leader == 0
    broken = [dataclasses.replace(reports[0], solvable=False)] + reports[1:]
    with pytest.raises(DesignError, match="solvability"):
        build_data_driven_gains(broken, bench_graph)
    undetected = [dataclasses.replace(r, detectable=False) for r in reports]
    with pytest.raises(DesignError, match="detectability"):
        build_data_driven_gains(undetected, bench_graph)


def test_rank_error_is_recorded_in_its_node_report_and_raised_by_the_design(
        bench_datasets, bench_graph):
    # a zero first state row leaves node 1's X row-rank deficient while both
    # solvability stacks keep rank 7 through Xdot: every node is still
    # analyzed, and the design raises that node's error before node 0's
    # solvability failure
    views = [ds.design_view() for ds in bench_datasets]
    x = views[1].X.copy()
    x[0] = 0.0
    views[1] = dataclasses.replace(views[1], X=x)
    reports, leader = analyze_datasets(views)
    message = "state data X is row-rank deficient; cannot recover the output map"
    assert [r.rank_error for r in reports] == [None, message, None, None, None]
    assert reports[1].solvable and reports[1].T_x is None and "X" not in reports[1].ranks
    assert leader == 0 and all(r.T_x is not None for i, r in enumerate(reports) if i != 1)
    broken = [dataclasses.replace(reports[0], solvable=False)] + reports[1:]
    with pytest.raises(RankError, match=f"^{message}$"):
        build_data_driven_gains(broken, bench_graph)


def test_equal_ranks_below_the_floor_are_not_solvable(bench_datasets):
    # one entry of 1e160 leaves both of node 0's stacks numerically of rank
    # one: the ranks agree, but below n_m + n_x they decide nothing
    view = bench_datasets[0].design_view()
    x = view.X.copy()
    x[0, 0] = 1e160
    report = analyze_node(dataclasses.replace(view, X=x))
    assert (report.ranks["U;Ydot;X"].rank, report.ranks["U;X;Xdot"].rank) == (1, 1)
    assert not report.solvable and report.rank_error is None and report.T_x is None


class _Poison:
    """Raises on any use; proves the design path never reads ground truth."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("design path touched W_validation")

    def __getitem__(self, item):
        raise AssertionError("design path touched W_validation")

    @property
    def shape(self):
        raise AssertionError("design path touched W_validation")


def test_design_path_never_reads_unknown_inputs(bench_datasets, bench_graph):
    poisoned = [dataclasses.replace(ds, W_validation=_Poison())
                for ds in bench_datasets]
    reports, leader = analyze_datasets(poisoned)
    assert leader == 0
    gains = build_data_driven_gains(reports, bench_graph,
                                    DesignSection(gamma_override=BENCH_GAMMA))
    assert gains.method == "data"
    # sanity: the poison does trip when ground truth is actually used
    from dduio.datagen import check_excitation_rank
    with pytest.raises(AssertionError, match="W_validation"):
        check_excitation_rank(poisoned[0])


def test_bounded_noise_smoke(bench_model, bench_graph):
    # With mildly noisy output data the design still succeeds once the
    # rank threshold is widened past the noise floor, and the closed loop
    # stays stable with a bounded steady error.
    from dduio.datagen import DataSection, collect
    from dduio.observer_sim import run, verify_decoupling
    datasets = [collect(bench_model, i, DataSection(N=50, noise_amplitude=1e-5), seed=500 + i)
                for i in range(5)]
    views = [ds.design_view() for ds in datasets]
    reports, leader = analyze_datasets(views, rtol=1e-2, multiplier=1e10)
    assert leader == 0
    gains = build_data_driven_gains(reports, bench_graph,
                                    DesignSection(gamma_override=BENCH_GAMMA))
    assert verify_decoupling(bench_model, gains).max_residual < 1e-1
    inputs, dist = bench_signals(55, 56, 1e-3)
    res = run(bench_model, bench_graph, gains, np.array([0.2, -0.4, 0.3, 0.1]),
              inputs, dist, horizon=20.0, dt=1e-3)
    assert res.error_norms[-1].max() < 0.1


@pytest.mark.parametrize("kind", ["generic", "hidden-unstable", "hidden-stable"])
def test_leader_test_reuses_the_structured_solve(monkeypatch, kind):
    from conftest import random_node_system
    a, b_m, b_p, c = random_node_system(np.random.default_rng(31), kind)
    ds = pointwise_dataset(a, b_m, b_p, c, N=b_m.shape[1] + b_p.shape[1] + a.shape[0] + 10,
                           seed=77)
    r_hat = check_data_solvability(ds)[1].rank - ds.n_m - ds.n_x
    c_rec, _ = recover_output_map(ds)
    _, _, t_x, _ = solve_data_equation_structured(ds, r_hat, c_rec)
    detectable = check_data_detectability(ds, t_x, r_hat, None)
    calls = record_solve_calls(monkeypatch)
    tested = []
    check = design_data.check_data_detectability
    monkeypatch.setattr(design_data, "check_data_detectability",
                        lambda ds, t_x, *args: tested.append(t_x) or check(ds, t_x, *args))
    report = analyze_node(ds, test_detectability=True)
    assert report.solvable and len(calls) == 1
    # the leader test ranks at the spectrum of the structured solve's own T_x
    assert len(tested) == 1 and tested[0] is report.T_x
    assert np.array_equal(report.T_x, t_x)
    assert report.detectable is detectable
    assert detectable == check_detectability(single_node_model(a, b_m, b_p, c), 0)


def test_analyze_node_ranks_and_inverts_each_matrix_once(monkeypatch, bench_datasets):
    # Every rank decision and pseudoinverse of one node's pass, the leader's
    # detectability test included, is one decide_rank call on its matrix,
    # made exactly once, and X is ranked and pseudo-inverted from one SVD.
    # numerical_rank calls decide_rank through the module global, so the
    # spy sees its decisions too.
    seen = {False: [], True: []}   # keyed by whether the pseudoinverse was asked for
    original = linalg.decide_rank

    def recording(a, *args, pinv=False, **kw):
        arr = np.ascontiguousarray(a)
        seen[pinv].append((arr.shape, arr.dtype.str, arr.tobytes()))
        return original(a, *args, pinv=pinv, **kw)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("dduio") and getattr(mod, "decide_rank", None) is original:
            monkeypatch.setattr(mod, "decide_rank", recording)
    report = analyze_node(bench_datasets[0].design_view(), test_detectability=True)
    assert report.solvable and report.detectable
    ds = bench_datasets[0]
    ranked = [key[2] for key in seen[False]]
    assert np.vstack([ds.U, ds.X, ds.Xdot]).tobytes() in ranked
    # one complex pencil per leader candidate, ranked through numerical_rank
    pencils = [key for key in seen[False] if key[1] == np.dtype(complex).str]
    assert len(pencils) == len(linalg.detectability_candidates(report.T_x)) > 0
    assert len(set(ranked)) == len(ranked)
    assert ds.X.tobytes() not in ranked
    assert [key[2] for key in seen[True]].count(ds.X.tobytes()) == 1
    matrices = seen[False] + seen[True]
    assert len(set(matrices)) == len(matrices), "a matrix passed through decide_rank twice"
