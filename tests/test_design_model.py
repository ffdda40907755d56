"""Model-based observer design: solvability, detectability, gain assembly."""
import inspect

import numpy as np
import pytest
import scipy.linalg

from dduio import design_model
from dduio.baselines import design_for_method
from dduio.config import parse_config
from dduio.design_model import (HURWITZ_TOL, DesignSection, assemble_from_blocks,
                                build_model_based_gains, check_detectability,
                                decoupling_gain, followers_certified, gamma_lower_bound,
                                rank_condition, stabilizing_output_injection)
from dduio.errors import DesignError, NumericsError, SolvabilityError
from dduio.linalg import numerical_rank, spectral_abscissa
from dduio.network import SensorGraph, complete, ring
from dduio.observer_sim import verify_decoupling
from dduio.plant import PlantModel

from conftest import (BENCH, BENCH_GAMMA, coupling_matrix, decomposition_spy,
                      load_bench_module, random_coupled_systems, single_node_model)

sweep_plant_config = load_bench_module("workloads").sweep_plant_config


def test_solvability_full_state_output(bench_model):
    model = single_node_model(np.zeros((3, 3)), np.zeros((3, 1)),
                              np.array([[1.0], [0.0], [0.0]]), np.eye(3))
    node = model.nodes[0]
    assert rank_condition(node.C, node.B_p)
    for node in bench_model.nodes:
        assert rank_condition(node.C, node.B_p)


def test_rank_multiplier_moves_the_preset_decoupling_crossover(bench_model):
    # node 0's sigma_min / sigma_max of C B_p is 0.0373, so its condition fails
    # once the threshold multiplier * 4 eps sigma_max passes it, near 4.2e13
    node0 = bench_model.nodes[0]
    assert rank_condition(node0.C, node0.B_p, 4.0e13)
    assert not rank_condition(node0.C, node0.B_p, 4.4e13)
    for multiplier, holds in ((5.0e13, [False, True, True, True, True]),
                              (1.0e14, [False, False, False, False, True])):
        assert [rank_condition(n.C, n.B_p, multiplier) for n in bench_model.nodes] == holds
    # decoupling_gain makes the same decision under the same multiplier
    decoupling_gain(node0.C, node0.B_p, 4.0e13)
    with pytest.raises(SolvabilityError):
        decoupling_gain(node0.C, node0.B_p, 4.4e13)


def test_solvability_zero_output_map():
    model = single_node_model(np.zeros((2, 2)), np.zeros((2, 1)),
                              np.array([[1.0], [0.0]]), np.zeros((1, 2)))
    node = model.nodes[0]
    assert not rank_condition(node.C, node.B_p)
    with pytest.raises(SolvabilityError):
        decoupling_gain(node.C, node.B_p)


def test_feedthrough_particular_solution_unit_vector():
    b_p = np.array([[1.0], [0.0]])
    h = decoupling_gain(np.eye(2), b_p)
    assert np.allclose(h, [[1.0, 0.0], [0.0, 0.0]])


def test_feedthrough_has_unknown_input_rank(bench_model):
    node = bench_model.nodes[0]
    h = decoupling_gain(node.C, node.B_p)
    assert numerical_rank(h) == node.r == 2


def test_detectability_cases(bench_model):
    assert check_detectability(bench_model, 0)
    # unstable unobservable mode
    bad = single_node_model(np.diag([1.0, -1.0]), np.zeros((2, 1)),
                            np.zeros((2, 0)), np.array([[0.0, 1.0]]))
    assert not check_detectability(bad, 0)
    # Hurwitz dynamics with no output at all: vacuously detectable
    quiet = single_node_model(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                              np.zeros((2, 0)), np.zeros((1, 2)))
    assert check_detectability(quiet, 0)


def test_output_injection_scalar_pole_shift():
    m = stabilizing_output_injection(np.array([[1.0]]), np.array([[1.0]]), decay=1.0)
    assert m[0, 0] > 2.0
    assert 1.0 - m[0, 0] <= -1.0


def test_output_injection_benchmark_leader(bench_model):
    node = bench_model.nodes[0]
    h = decoupling_gain(node.C, node.B_p)
    t = (np.eye(4) - h @ node.C) @ bench_model.A
    m1 = stabilizing_output_injection(t, node.C, decay=0.5)
    assert spectral_abscissa(t - m1 @ node.C) < -0.5


def test_output_injection_hurwitz_with_useless_output():
    t = np.diag([-2.0, -3.0])
    m = stabilizing_output_injection(t, np.zeros((1, 2)), decay=1.0)
    assert spectral_abscissa(t - m @ np.zeros((1, 2))) < 0


def test_single_node_degenerate_network():
    model = single_node_model(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.array([[0.0], [1.0]]), np.zeros((2, 0)), np.eye(2))
    gains = build_model_based_gains(model, SensorGraph(np.zeros((1, 1))))
    assert gains.gamma == 0.0
    assert np.allclose(gains.K[0], 0.0)
    assert spectral_abscissa(gains.E_obs[0]) < 0


def test_zero_follower_blocks_still_need_positive_gamma():
    # A = 0 with identity outputs makes every follower error block zero.
    a = np.zeros((2, 2))
    b = np.array([[1.0], [0.0]])
    model = PlantModel.assemble(a, b, np.zeros((2, 0)),
                                [(np.eye(2), (0,), ()) for _ in range(3)])
    gains = build_model_based_gains(model, ring(3))
    assert gains.gamma > 0
    assert spectral_abscissa(coupling_matrix(gains.E_obs, gains.K, ring(3).laplacian)) < 0


def test_benchmark_gains_with_paper_gamma(bench_model, bench_graph, model_gains):
    assert model_gains.gamma == 5.0
    assert model_gains.leader == 0
    absc = spectral_abscissa(coupling_matrix(model_gains.E_obs, model_gains.K,
                                             bench_graph.laplacian))
    assert absc < 0
    report = verify_decoupling(bench_model, model_gains)
    assert report.max_residual < 1e-10


def test_default_gamma_exceeds_bound(bench_model, bench_graph):
    gains = build_model_based_gains(bench_model, bench_graph)
    lam = bench_graph.lambda_min_reduced(gains.leader)
    followers = [gains.E_obs[i] for i in range(gains.M) if i != gains.leader]
    bound = gamma_lower_bound(followers, lam)
    assert gains.gamma > bound
    # Lyapunov margin of the follower subsystem
    e = np.zeros((0, 0))
    import scipy.linalg as sla
    e = sla.block_diag(*followers)
    assert np.linalg.norm(e + e.T, 2) - 2 * gains.gamma * lam < 0


def test_gamma_bound_scalar_value():
    bound = gamma_lower_bound([np.array([[0.5]])], 1.0)
    assert bound == pytest.approx(0.5)


def test_gamma_bound_decomposes_one_block_at_a_time():
    rng = np.random.default_rng(7)
    followers = [rng.normal(size=(3, 3)) for _ in range(4)]
    with decomposition_spy() as calls:
        bound = gamma_lower_bound(followers, 0.5)
    assert [shape for shape, _ in calls] == [(3, 3)] * 4
    e = scipy.linalg.block_diag(*followers)
    assert bound == pytest.approx(np.linalg.norm(e + e.T, 2) / (2 * 0.5), rel=1e-12)


def test_coupling_hurwitz_above_bound_random_graphs():
    for graph, e_blocks, gamma in random_coupled_systems(314, 1.0, 0.5):
        n = e_blocks[0].shape[0]
        k_blocks = [np.zeros((n, n))] + [gamma * np.eye(n)] * (graph.M - 1)
        absc = spectral_abscissa(coupling_matrix(e_blocks, k_blocks, graph.laplacian))
        assert absc < 0


def _cholesky_spy(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.cholesky`` call."""
    calls = []
    original = np.linalg.cholesky

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return calls


def test_certificate_implies_abscissa_below_tolerance():
    # criterion 5's systems: gamma 1.001 x the bound, so every certificate holds
    for graph, e_blocks, gamma in random_coupled_systems(5150, 3.0, 0.3):
        assert followers_certified(e_blocks[1:], graph.reduced_laplacian(0), gamma)
        n = e_blocks[0].shape[0]
        k_blocks = [np.zeros((n, n))] + [gamma * np.eye(n)] * (graph.M - 1)
        assert spectral_abscissa(coupling_matrix(e_blocks, k_blocks, graph.laplacian)) \
            < HURWITZ_TOL


@pytest.mark.parametrize("index", range(5))
def test_sweep_plant_is_certified_without_decomposing_the_coupled_matrix(index):
    cfg = parse_config(sweep_plant_config(1, index))
    model, graph = cfg.build_model(), cfg.build_graph()
    with decomposition_spy() as calls:
        gains = build_model_based_gains(model, graph, cfg.design)
    size = gains.M * gains.n_x
    assert all(shape != (size, size) for shape, _ in calls)
    followers = [e for i, e in enumerate(gains.E_obs) if i != gains.leader]
    assert followers_certified(followers, graph.reduced_laplacian(gains.leader), gains.gamma)
    assert spectral_abscissa(gains.error_matrix(graph.laplacian)) < HURWITZ_TOL


def test_gamma_below_the_bound_takes_the_eigvals_fallback(bench_model, bench_graph):
    default = build_model_based_gains(bench_model, bench_graph)
    followers = [e for i, e in enumerate(default.E_obs) if i != default.leader]
    assert BENCH_GAMMA < gamma_lower_bound(followers,
                                           bench_graph.lambda_min_reduced(default.leader))
    assert not followers_certified(followers, bench_graph.reduced_laplacian(default.leader),
                                   BENCH_GAMMA)
    with decomposition_spy() as calls:
        gains = build_model_based_gains(bench_model, bench_graph,
                                        DesignSection(gamma_override=BENCH_GAMMA))
    coupled = gains.error_matrix(bench_graph.laplacian)
    assert (coupled.shape, coupled.tobytes()) in calls
    assert spectral_abscissa(coupled) < HURWITZ_TOL
    # gamma enters only the coupling: every block is the default design's
    assert (gains.gamma, gains.leader) == (BENCH_GAMMA, default.leader)
    for field in ("E_obs", "F", "L", "H"):
        for a, b in zip(getattr(gains, field), getattr(default, field)):
            assert np.array_equal(a, b), field


def _scalar_pair(follower: float, gamma: float):
    """Two scalar nodes on one edge: a stable leader and the given follower block."""
    design = DesignSection(gamma_override=gamma)
    return assemble_from_blocks([np.array([[-1.0]]), np.array([[follower]])],
                                [np.zeros((1, 1))] * 2, [np.zeros((1, 0))] * 2,
                                [np.eye(1)] * 2, complete(2), design, "model")


def test_unstable_follower_with_a_small_gamma_is_refused():
    with pytest.raises(NumericsError,
                       match=r"coupled error dynamics not Hurwitz \(abscissa 5\.000e-01\)"):
        _scalar_pair(1.0, 0.5)


def test_certificate_keeps_the_hurwitz_tolerance(monkeypatch):
    # the follower block is -gamma: -2e-8 is certified, -5e-9 lies above HURWITZ_TOL
    calls = _cholesky_spy(monkeypatch)
    assert _scalar_pair(0.0, 2e-8).gamma == 2e-8
    assert len(calls) == 1
    with pytest.raises(NumericsError, match=r"abscissa -5\.000e-09"):
        _scalar_pair(0.0, 5e-9)


def test_certificate_refuses_a_non_finite_block():
    # numpy's Cholesky factors a NaN or an infinite diagonal without raising
    for bad in (np.nan, np.inf, -np.inf):
        assert not followers_certified([np.array([[bad]])], np.eye(1), 1.0)


def test_single_node_needs_no_follower_certificate(monkeypatch):
    model = single_node_model(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.array([[0.0], [1.0]]), np.zeros((2, 0)), np.eye(2))
    calls = _cholesky_spy(monkeypatch)
    with decomposition_spy() as decompositions:
        gains = build_model_based_gains(model, SensorGraph(np.zeros((1, 1))))
    assert calls == []
    # the one coupled block is the leader's, decomposed once by its Riccati check
    coupled = gains.error_matrix(np.zeros((1, 1)))
    assert decompositions.count((coupled.shape, coupled.tobytes())) == 1


def test_leader_relabeling_skips_undetectable_node():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    # node 0 misses the unstable mode; node 1 sees the full state
    model = PlantModel.assemble(a, b, np.zeros((2, 0)),
                                [(np.array([[0.0, 1.0]]), (0,), ()), (np.eye(2), (0,), ())])
    gains = build_model_based_gains(model, complete(2))
    assert gains.leader == 1
    assert np.allclose(gains.K[1], 0.0)
    assert np.allclose(gains.K[0], gains.gamma * np.eye(2))
    assert spectral_abscissa(coupling_matrix(gains.E_obs, gains.K, complete(2).laplacian)) < 0


def test_design_errors_name_the_condition():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    # no node detectable
    model = PlantModel.assemble(a, b, np.zeros((2, 0)),
                                [(np.array([[0.0, 1.0]]), (0,), ())] * 2)
    with pytest.raises(DesignError, match="detectable"):
        build_model_based_gains(model, complete(2))
    # solvability violated at node 1: its C annihilates the unknown column
    a2 = np.zeros((2, 2))
    b2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    model2 = PlantModel.assemble(a2, b2, np.zeros((2, 0)),
                                 [(np.eye(2), (0,), (1.0,)),
                                  (np.array([[0.0, 1.0]]), (0,), (1.0,))])
    with pytest.raises(DesignError, match="node 1"):
        build_model_based_gains(model2, complete(2))


def test_gains_json_roundtrip(model_gains):
    from dduio.design_model import DuioGains
    d = model_gains.to_json_dict()
    back = DuioGains.from_json_dict(d)
    assert back.gamma == model_gains.gamma
    assert back.leader == model_gains.leader
    for i in range(model_gains.M):
        assert np.array_equal(back.E_obs[i], model_gains.E_obs[i])
        assert np.array_equal(back.H[i], model_gains.H[i])


def test_model_side_designs_rank_each_node_once(monkeypatch, bench_model, bench_graph,
                                                bench_datasets):
    calls = {"decoupling_gain": [], "pbh_detectable": [], "assemble_from_blocks": [],
             "__post_init__": []}
    for owner, name in ((design_model, "decoupling_gain"), (design_model, "pbh_detectable"),
                        (design_model, "assemble_from_blocks"),
                        (SensorGraph, "__post_init__")):
        def spy(*args, _log=calls[name], _original=getattr(owner, name), **kwargs):
            _log.append(inspect.signature(_original).bind(*args, **kwargs).arguments)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    # the default multiplier and a non-default one the preset design still passes
    for cfg in (BENCH, parse_config({"design": {"rank_multiplier": 1.0e4}})):
        multiplier = cfg.design.rank_multiplier
        for method in ("model", "id"):
            for log in calls.values():
                log.clear()
            design_for_method(method, cfg, bench_model, bench_graph, bench_datasets)
            assert len(calls["decoupling_gain"]) == bench_model.M, method
            for call, node in zip(calls["decoupling_gain"], bench_model.nodes):
                assert np.array_equal(call["B_p"], node.B_p), method
                assert call["multiplier"] == multiplier, method
                if method == "model":
                    assert call["C"] is node.C
            # the leader search ranks its PBH pencils under the same multiplier
            assert calls["pbh_detectable"], method
            assert all(call["multiplier"] == multiplier
                       for call in calls["pbh_detectable"]), method
            assert len(calls["assemble_from_blocks"]) == 1, method
            # the design reads the graph's Laplacian; it builds no graph of its own
            assert calls["__post_init__"] == [], method
