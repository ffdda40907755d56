"""Model-based observer design: solvability, detectability, gain assembly."""
import functools
import inspect
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dduio import design_model
from dduio.baselines import collect_all_nodes, design_for_method
from dduio.config import parse_config
from dduio.design_model import (HURWITZ_TOL, DesignSection, DuioGains, assemble_from_blocks,
                                build_model_based_gains, check_detectability, coupled_abscissa,
                                decoupling_gain, follower_norm, gamma_lower_bound,
                                rank_condition, stabilizing_output_injection)
from dduio.errors import DesignError, NumericsError, SolvabilityError
from dduio.linalg import numerical_rank, spectral_abscissa
from dduio.network import SensorGraph, complete, ring
from dduio.observer_sim import verify_decoupling
from dduio.plant import PlantModel

from conftest import (BENCH, BENCH_GAMMA, coupling_matrix, decomposition_spy,
                      followers_certified, load_bench_module, random_coupled_systems,
                      reduced_laplacian, single_node_model)

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
    m, absc, shift = stabilizing_output_injection(np.array([[1.0]]), np.array([[1.0]]),
                                                  decay=1.0)
    assert shift == 1.0
    assert absc == 1.0 - m[0, 0]
    assert m[0, 0] > 2.0
    assert 1.0 - m[0, 0] <= -1.0


def test_output_injection_benchmark_leader(bench_model):
    node = bench_model.nodes[0]
    h = decoupling_gain(node.C, node.B_p)
    t = (np.eye(4) - h @ node.C) @ bench_model.A
    m1, absc, shift = stabilizing_output_injection(t, node.C, decay=0.5)
    assert spectral_abscissa(t - m1 @ node.C) == absc < -0.5
    assert shift == 0.5


def test_output_injection_hurwitz_with_useless_output():
    t = np.diag([-2.0, -3.0])
    m, _, shift = stabilizing_output_injection(t, np.zeros((1, 2)), decay=1.0)
    assert spectral_abscissa(t - m @ np.zeros((1, 2))) < 0
    assert shift == 1.0


def test_output_injection_relaxes_the_shift_past_a_shallow_unobservable_mode():
    # the mode at -0.2 is unobservable: shifts 0.5 and 0.25 make it unstable
    t = np.diag([-0.2, 0.0])
    m, absc, shift = stabilizing_output_injection(t, np.array([[0.0, 1.0]]), decay=0.5)
    assert shift == 0.125
    assert absc == -0.2 == spectral_abscissa(t - m @ np.array([[0.0, 1.0]]))


def _scipy_care(a, b):
    """The Riccati solve as the shift loop made it with scipy, ValueError included."""
    try:
        return scipy.linalg.solve_continuous_are(a, b, np.eye(a.shape[0]), np.eye(b.shape[1]))
    except ValueError as exc:
        raise np.linalg.LinAlgError(str(exc)) from None


def _injection_outcome(t, c):
    try:
        return stabilizing_output_injection(t, c, decay=0.5)
    except NumericsError:
        return None


@pytest.mark.parametrize("pair", ["(s-1)^14", "unstable-unobservable", "shallow-unobservable",
                                  "preset", "sweep-4"])
def test_output_injection_ends_as_the_scipy_solve_does(monkeypatch, pair):
    if pair == "(s-1)^14":
        t, c = scipy.linalg.companion(np.poly([1.0] * 14)), np.eye(14)[:1]
    elif pair == "unstable-unobservable":
        t, c = np.diag([1.0, -1.0]), np.array([[0.0, 1.0]])
    elif pair == "shallow-unobservable":
        t, c = np.diag([-0.2, 0.0]), np.array([[0.0, 1.0]])
    else:
        cfg = parse_config({} if pair == "preset" else sweep_plant_config(1, 4))
        model = cfg.build_model()
        gains = build_model_based_gains(model, cfg.build_graph(), cfg.design)
        node = model.nodes[gains.leader]
        t, c = (np.eye(model.n_x) - gains.H[gains.leader] @ node.C) @ model.A, node.C
    got = _injection_outcome(t, c)
    monkeypatch.setattr(design_model, "solve_care", _scipy_care)
    want = _injection_outcome(t, c)
    if want is None:
        assert got is None
        return
    assert got.shift == want.shift
    assert np.allclose(got.gain, want.gain, rtol=1e-8, atol=1e-10 * np.abs(want.gain).max())
    assert got.abscissa == pytest.approx(want.abscissa, rel=1e-8)


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
    bound = gamma_lower_bound(follower_norm(followers), lam)
    assert gains.gamma > bound
    # Lyapunov margin of the follower subsystem
    e = np.zeros((0, 0))
    import scipy.linalg as sla
    e = sla.block_diag(*followers)
    assert np.linalg.norm(e + e.T, 2) - 2 * gains.gamma * lam < 0


def test_gamma_bound_scalar_value():
    bound = gamma_lower_bound(follower_norm([np.array([[0.5]])]), 1.0)
    assert bound == pytest.approx(0.5)


def test_gamma_bound_decomposes_one_block_at_a_time():
    rng = np.random.default_rng(7)
    followers = [rng.normal(size=(3, 3)) for _ in range(4)]
    with decomposition_spy() as calls:
        bound = gamma_lower_bound(follower_norm(followers), 0.5)
    assert [shape for shape, _ in calls] == [(3, 3)] * 4
    e = scipy.linalg.block_diag(*followers)
    assert bound == pytest.approx(np.linalg.norm(e + e.T, 2) / (2 * 0.5), rel=1e-12)


def test_coupling_hurwitz_above_bound_random_graphs():
    for graph, e_blocks, gamma in random_coupled_systems(314, 1.0, 0.5):
        n = e_blocks[0].shape[0]
        k_blocks = [np.zeros((n, n))] + [gamma * np.eye(n)] * (graph.M - 1)
        absc = spectral_abscissa(coupling_matrix(e_blocks, k_blocks, graph.laplacian))
        assert absc < 0


@pytest.fixture
def fallbacks(monkeypatch) -> list:
    """The gamma of every follower block F that ``assemble_from_blocks``' fallback builds.

    The fallback is ``coupled_abscissa`` called from ``assemble_from_blocks``.
    """
    calls = []
    original = DuioGains.follower_matrix

    def spy(self, laplacian):
        if (sys._getframe(1).f_code is design_model.coupled_abscissa.__code__
                and sys._getframe(2).f_code is assemble_from_blocks.__code__):
            calls.append(self.gamma)
        return original(self, laplacian)
    monkeypatch.setattr(DuioGains, "follower_matrix", spy)
    return calls


def test_certificate_implies_abscissa_below_tolerance():
    # criterion 5's systems: gamma 1.001 x the bound, so every oracle certificate holds
    for graph, e_blocks, gamma in random_coupled_systems(5150, 3.0, 0.3):
        assert followers_certified(e_blocks[1:], reduced_laplacian(graph, 0), gamma)
        n = e_blocks[0].shape[0]
        k_blocks = [np.zeros((n, n))] + [gamma * np.eye(n)] * (graph.M - 1)
        assert spectral_abscissa(coupling_matrix(e_blocks, k_blocks, graph.laplacian)) \
            < HURWITZ_TOL


def _assemble_error_blocks(e_blocks, graph, design):
    """Assemble open error blocks with full-state outputs, node 0 the leader."""
    n, m = e_blocks[0].shape[0], graph.M
    return assemble_from_blocks(e_blocks, [np.zeros((n, n))] * m, [np.zeros((n, 0))] * m,
                                [np.eye(n)] * m, graph, design, "model", leader=0)


def _designs(systems: str):
    """(graph, design function, design settings) of criterion 5's systems or a sweep plant."""
    if systems == "criterion-5":
        for graph, e_blocks, gamma in random_coupled_systems(5150, 3.0, 0.3):
            yield (graph, functools.partial(_assemble_error_blocks, e_blocks, graph),
                   DesignSection(gamma_override=gamma))
    else:
        cfg = parse_config(sweep_plant_config(1, int(systems.removeprefix("sweep-"))))
        model, graph = cfg.build_model(), cfg.build_graph()
        yield graph, functools.partial(build_model_based_gains, model, graph), cfg.design


OVERRIDE_FACTORS = (0.5, 0.9, 1.0, 1.001, 1.1, 2.0)


@pytest.mark.parametrize("systems", ["criterion-5", *(f"sweep-{k}" for k in range(5))])
def test_bound_certificate_implies_the_cholesky_oracle(fallbacks, systems):
    # each design at its own gamma and at gamma overrides on both sides of the bound
    outcomes = []
    for graph, design_with, design in _designs(systems):
        base = design_with(design)
        followers = [e for i, e in enumerate(base.E_obs) if i != base.leader]
        bound = gamma_lower_bound(follower_norm(followers),
                                  graph.lambda_min_reduced(base.leader))
        for gamma in (design.gamma_override or base.gamma,
                      *(f * bound for f in OVERRIDE_FACTORS)):
            before = len(fallbacks)
            try:
                gains = design_with(replace(design, gamma_override=gamma))
            except NumericsError:
                assert len(fallbacks) == before + 1
                outcomes.append("refused")
                continue
            if len(fallbacks) > before:
                outcomes.append("fallback")
                continue
            outcomes.append("bound")
            assert followers_certified(followers, reduced_laplacian(graph, gains.leader), gamma)
            assert spectral_abscissa(gains.error_matrix(graph.laplacian)) < HURWITZ_TOL
    assert "bound" in outcomes and {"fallback", "refused"} & set(outcomes)


@pytest.mark.parametrize("index", range(5))
def test_sweep_plant_is_certified_without_decomposing_the_coupled_matrix(
        monkeypatch, fallbacks, index):
    cfg = parse_config(sweep_plant_config(1, index))
    model, graph = cfg.build_model(), cfg.build_graph()
    built = []

    def record(original):
        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            built.append(out.shape)
            return out
        return spy
    monkeypatch.setattr(design_model, "block_diag", record(design_model.block_diag))
    monkeypatch.setattr(np, "kron", record(np.kron))
    with decomposition_spy() as calls:
        gains = build_model_based_gains(model, graph, cfg.design)
    # nothing as large as the follower block is built, let alone decomposed
    size = (gains.M - 1) * gains.n_x
    assert calls and max(max(shape) for shape, _ in calls) < size
    assert all(max(shape) < size for shape in built)
    assert fallbacks == []
    followers = [e for i, e in enumerate(gains.E_obs) if i != gains.leader]
    assert followers_certified(followers, reduced_laplacian(graph, gains.leader), gains.gamma)
    # the spies see the blocks that building the coupled matrix does make
    before = len(built)
    assert spectral_abscissa(gains.error_matrix(graph.laplacian)) < HURWITZ_TOL
    assert built[before:].count((gains.M * gains.n_x,) * 2) == 2


def test_gamma_below_the_bound_takes_the_eigvals_fallback(bench_model, bench_graph,
                                                          fallbacks):
    default = build_model_based_gains(bench_model, bench_graph)
    followers = [e for i, e in enumerate(default.E_obs) if i != default.leader]
    assert BENCH_GAMMA < gamma_lower_bound(follower_norm(followers),
                                           bench_graph.lambda_min_reduced(default.leader))
    assert not followers_certified(
        followers, reduced_laplacian(bench_graph, default.leader), BENCH_GAMMA)
    with decomposition_spy() as calls:
        gains = build_model_based_gains(bench_model, bench_graph,
                                        DesignSection(gamma_override=BENCH_GAMMA))
    assert fallbacks == [BENCH_GAMMA]
    # the fallback factors the follower block F, never the coupled matrix
    coupled = gains.error_matrix(bench_graph.laplacian)
    follower = gains.follower_matrix(bench_graph.laplacian)
    assert (follower.shape, follower.tobytes()) in calls
    assert all(shape != coupled.shape for shape, _ in calls)
    assert spectral_abscissa(coupled) < HURWITZ_TOL
    # gamma enters only the coupling: every block is the default design's
    assert (gains.gamma, gains.leader) == (BENCH_GAMMA, default.leader)
    for field in ("E_obs", "F", "L", "H"):
        for a, b in zip(getattr(gains, field), getattr(default, field)):
            assert np.array_equal(a, b), field


def _scalar_pair(follower: float, gamma: float, h: float = 0.0):
    """Two scalar nodes on one edge: a stable leader and the given follower block.

    ``h`` is both nodes' output feedthrough.
    """
    design = DesignSection(gamma_override=gamma)
    return assemble_from_blocks([np.array([[-1.0]]), np.array([[follower]])],
                                [np.array([[h]])] * 2, [np.zeros((1, 0))] * 2,
                                [np.eye(1)] * 2, complete(2), design, "model")


def test_unstable_follower_with_a_small_gamma_is_refused():
    with pytest.raises(NumericsError,
                       match=r"coupled error dynamics not Hurwitz \(abscissa 5\.000e-01\)"):
        _scalar_pair(1.0, 0.5)


def test_certificate_keeps_the_hurwitz_tolerance(fallbacks):
    # the follower block is -gamma: -2e-8 is certified, -5e-9 lies above HURWITZ_TOL
    with decomposition_spy() as calls:
        gains = _scalar_pair(0.0, 2e-8)
    assert gains.gamma == 2e-8
    assert fallbacks == []
    coupled = gains.error_matrix(complete(2).laplacian)
    assert (coupled.shape, coupled.tobytes()) not in calls
    with pytest.raises(NumericsError, match=r"abscissa -5\.000e-09"):
        _scalar_pair(0.0, 5e-9)
    assert fallbacks == [5e-9]


def test_certificate_refuses_a_non_finite_block():
    for bad in (np.nan, np.inf, -np.inf):
        # numpy's Cholesky factors a NaN or an infinite diagonal without raising
        assert not followers_certified([np.array([[bad]])], np.eye(1), 1.0)
        for h in (0.0, 1.0):
            with pytest.raises(NumericsError, match="node 1: the error matrix"):
                _scalar_pair(bad, 1.0, h=h)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_assembly_names_the_node_of_a_non_finite_block(bad):
    # every block kind of the follower, refused before any arithmetic can warn
    blocks = {"error matrix": [np.array([[-1.0]]), np.array([[-1.0]])],
              "output feedthrough": [np.eye(1), np.eye(1)],
              "input gain": [np.ones((1, 1)), np.ones((1, 1))],
              "output map": [np.eye(1), np.eye(1)]}
    for name in blocks:
        poisoned = {k: [b.copy() for b in v] for k, v in blocks.items()}
        poisoned[name][1][0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=f"node 1: the {name} has a non-finite"):
                assemble_from_blocks(*poisoned.values(), complete(2), DesignSection(), "model")


def test_single_node_needs_no_follower_certificate(fallbacks):
    model = single_node_model(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              np.array([[0.0], [1.0]]), np.zeros((2, 0)), np.eye(2))
    with decomposition_spy() as decompositions:
        gains = build_model_based_gains(model, SensorGraph(np.zeros((1, 1))))
    assert fallbacks == []
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
    # an M = 1 design writes gamma 0
    assert DuioGains.from_json_dict({**d, "gamma": 0.0}).gamma == 0.0
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


def _oracle_designs(systems: str, bench_model, bench_graph, bench_datasets):
    """(graph, gains) of criterion 5's systems, the sweep plants or the preset."""
    if systems == "criterion-5":
        for graph, e_blocks, gamma in random_coupled_systems(5150, 3.0, 0.3):
            design = DesignSection(gamma_override=gamma)
            yield graph, _assemble_error_blocks(e_blocks, graph, design)
            # the last node leads, with gamma from its own bound
            n, m = e_blocks[0].shape[0], graph.M
            yield graph, assemble_from_blocks(
                e_blocks, [np.zeros((n, n))] * m, [np.zeros((n, 0))] * m,
                [np.eye(n)] * m, graph, DesignSection(), "model", leader=m - 1)
    elif systems == "one-node":
        model = single_node_model(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                  np.array([[0.0], [1.0]]), np.zeros((2, 0)), np.eye(2))
        graph = SensorGraph(np.zeros((1, 1)))
        yield graph, build_model_based_gains(model, graph)
    elif systems == "preset":
        for design in (BENCH.design, DesignSection(gamma_override=BENCH_GAMMA)):
            cfg = replace(BENCH, design=design)
            for method in ("model", "data", "id"):
                yield bench_graph, design_for_method(method, cfg, bench_model, bench_graph,
                                                     bench_datasets)
    else:
        # seed s's plant of the s-th size, so the dense oracle stays small
        seed = int(systems.removeprefix("sweep-seed-"))
        cfg = parse_config(sweep_plant_config(seed, seed - 1))
        model, graph = cfg.build_model(), cfg.build_graph()
        datasets = collect_all_nodes(cfg, model, cfg.seed)
        for method in ("model", "data", "id"):
            yield graph, design_for_method(method, cfg, model, graph, datasets)


@pytest.mark.parametrize("systems", ["criterion-5", "one-node", "preset",
                                     *(f"sweep-seed-{s}" for s in (1, 2, 3))])
def test_coupled_abscissa_matches_the_dense_spectrum(systems, bench_model, bench_graph,
                                                     bench_datasets):
    factored = []
    for graph, designed in _oracle_designs(systems, bench_model, bench_graph,
                                           bench_datasets):
        cases = [designed, replace(designed)]
        if designed.M > 1:
            # half the bound: the ceiling is positive, so F is factored
            bound = coupled_abscissa(designed, graph).bound
            cases.append(replace(designed, gamma=0.5 * bound))
        for gains in cases:
            with decomposition_spy() as calls:
                result = coupled_abscissa(gains, graph)
            dense = spectral_abscissa(gains.error_matrix(graph.laplacian))
            assert abs(result.abscissa - dense) <= 1e-9 * max(1.0, abs(dense))
            leader_absc = spectral_abscissa(gains.E_obs[gains.leader])
            if result.block == "leader":
                assert result.abscissa == leader_absc
            else:
                assert result.abscissa > leader_absc
            # nothing larger than one node's block is factored, save F itself
            n_x = gains.n_x
            f_shape = ((gains.M - 1) * n_x,) * 2
            assert all(max(shape) <= n_x or shape == f_shape for shape, _ in calls)
            factored.append(f_shape in [shape for shape, _ in calls])
        # the design's own facts are the ones recomputed by a copy
        assert coupled_abscissa(replace(designed), graph) == coupled_abscissa(designed, graph)
    # each branch is taken: the sweep designs' ceilings alone settle the abscissa
    if systems != "one-node":
        assert True in factored
    if systems.startswith("sweep"):
        assert False in factored
