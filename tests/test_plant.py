"""Plant model construction and trajectory integration."""
import numpy as np
import pytest
import scipy.linalg

from dduio.errors import DimensionError, DivergenceError, RankError
from dduio.plant import MAX_SAMPLES, PlantModel, check_scenario, simulate, step_count
from dduio.signals import AutonomousLinear, Sinusoid, Zero

from conftest import BENCH, single_node_model


def two_state_model(a):
    return single_node_model(a, np.zeros((2, 1)), np.zeros((2, 0)), np.eye(2))


def test_zero_dynamics_constant_state():
    model = two_state_model(np.zeros((2, 2)))
    traj = simulate(model, [1.0, 2.0], [Zero()], [], horizon=2.0, dt=0.01)
    assert np.allclose(traj.x, [1.0, 2.0], atol=0)
    assert np.allclose(traj.xdot, 0.0, atol=0)


def test_double_integrator_analytic():
    model = two_state_model(np.array([[0.0, 1.0], [0.0, 0.0]]))
    traj = simulate(model, [0.0, 1.0], [Zero()], [], horizon=1.0, dt=1e-3)
    # x(1) = (1, 1); the RK4 map is exact for nilpotent dynamics.
    assert np.linalg.norm(traj.x[-1] - np.array([1.0, 1.0])) < 1e-9


# The preset's known-input decay and unknown-input sinusoid parameters.
DECAY = BENCH.inputs[0].params["transition"][0][0]
SINUSOID = BENCH.inputs[1].params


def _augmented_oracle(model, u0, t_end):
    """Matrix-exponential solution of the benchmark with its smooth inputs.

    Augments the state with the known-input exponential and the harmonic
    pair generating the unknown-input cosine; evaluates exp(A_aug t)
    directly, fully independent of the package integrator.
    """
    w = SINUSOID["frequency"]
    amp = SINUSOID["amplitude"]
    phase = SINUSOID["phase"]
    n = model.n_x
    a_aug = np.zeros((n + 3, n + 3))
    a_aug[:n, :n] = model.A
    a_aug[:n, n] = model.B[:, 0]
    a_aug[:n, n + 1] = amp * model.B[:, 1]
    a_aug[n, n] = DECAY
    a_aug[n + 1, n + 2] = -w
    a_aug[n + 2, n + 1] = w
    z0 = np.zeros(n + 3)
    z0[n] = u0
    z0[n + 1] = np.cos(phase)
    z0[n + 2] = np.sin(phase)
    return (scipy.linalg.expm(a_aug * t_end) @ z0)[:n]


def bench_inputs(u0):
    return [AutonomousLinear([[DECAY]], [u0]),
            Sinusoid(SINUSOID["amplitude"], SINUSOID["frequency"], SINUSOID["phase"])]


def test_rk4_matches_matrix_exponential_oracle(bench_model):
    u0 = 0.63
    traj = simulate(bench_model, np.zeros(4), bench_inputs(u0), [Zero()],
                    horizon=1.0, dt=1e-4)
    x_ref = _augmented_oracle(bench_model, u0, 1.0)
    assert np.linalg.norm(traj.x[-1] - x_ref) < 1e-6


def test_rk4_fourth_order_convergence(bench_model):
    u0 = 0.63
    x_ref = _augmented_oracle(bench_model, u0, 1.0)
    errors = []
    for dt in (0.02, 0.01):
        traj = simulate(bench_model, np.zeros(4), bench_inputs(u0), [Zero()],
                        horizon=1.0, dt=dt)
        errors.append(np.linalg.norm(traj.x[-1] - x_ref))
    assert errors[0] / errors[1] >= 12.0


def test_node_split_reconstructs_global_forcing(bench_model):
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.normal(size=bench_model.n_u)
        d = rng.normal(size=bench_model.n_d)
        want = bench_model.B @ u + bench_model.E_dist @ d
        for i, node in enumerate(bench_model.nodes):
            u_i = u[list(node.known_input_indices)]
            unknown = [k for k in range(bench_model.n_u)
                       if k not in node.known_input_indices]
            w_i = np.concatenate([u[unknown] / node.unknown_input_scales, d])
            got = node.B_m @ u_i + node.B_p @ w_i
            assert np.linalg.norm(got - want) < 1e-12


def test_benchmark_node1_matrices(bench_model):
    node = bench_model.nodes[0]
    assert np.allclose(node.B_m, [[0.0], [1.3333], [0.0], [0.0]])
    assert np.allclose(node.B_p, [[1.0, 0.1], [1.0, 0.0], [1.0, 0.1], [1.0, 0.0]])


def test_fully_known_inputs_leave_empty_unknown_block():
    a = np.zeros((2, 2))
    b = np.array([[1.0], [0.5]])
    model = PlantModel.assemble(a, b, np.zeros((2, 0)), [(np.eye(2), (0,), ())])
    node = model.nodes[0]
    assert node.B_p.shape == (2, 0)
    assert np.array_equal(node.B_m, b)


def test_rank_deficient_unknown_columns_rejected():
    a = np.zeros((2, 2))
    b = np.array([[1.0, 2.0], [1.0, 2.0]])  # unknown column parallel to E
    e = np.array([[1.0], [1.0]])
    with pytest.raises(RankError):
        PlantModel.assemble(a, b, e, [(np.eye(2), (0,), (1.0,))])


def test_dimension_errors(bench_model):
    with pytest.raises(DimensionError):
        simulate(bench_model, [1.0, 2.0], bench_inputs(0.1), [Zero()],
                 horizon=1.0, dt=1e-2)
    with pytest.raises(DimensionError):
        simulate(bench_model, np.zeros(4), bench_inputs(0.1), [Zero()],
                 horizon=1.0, dt=0.0)
    with pytest.raises(DimensionError):
        PlantModel.assemble(np.zeros((2, 3)), np.zeros((2, 1)),
                            np.zeros((2, 0)), [(np.eye(2), (0,), ())])


@pytest.mark.parametrize("horizon, dt", [(1.0, np.nan), (np.nan, 1e-2), (np.inf, 1e-2)])
def test_simulate_refuses_nan_and_infinite_times(bench_model, horizon, dt):
    with pytest.raises(DimensionError, match="0 < dt <= horizon < inf"):
        simulate(bench_model, np.zeros(4), bench_inputs(0.1), [Zero()], horizon=horizon, dt=dt)


@pytest.mark.parametrize("horizon, dt", [(9223372036854775808, 1e-3), (10 ** 400, 1.0),
                                         (MAX_SAMPLES * 1e-3 + 1e-3, 1e-3)],
                         ids=["int64-overflow", "beyond-float", "one-step-past"])
def test_step_count_past_the_ceiling_is_a_dimension_error(bench_model, horizon, dt):
    # unchecked, the first two die in np.arange with a bare ValueError
    with pytest.raises(DimensionError, match=rf"at most {MAX_SAMPLES} steps, got dt="):
        simulate(bench_model, np.zeros(4), bench_inputs(0.1), [Zero()], horizon=horizon, dt=dt)
    with pytest.raises(DimensionError, match="at most"):
        check_scenario(bench_model, np.zeros(4), bench_inputs(0.1), [Zero()], horizon, dt)


@pytest.mark.parametrize("dt", [10 ** 400, -10 ** 400], ids=["beyond-float", "negative"])
def test_step_count_refuses_a_dt_beyond_float_range(dt):
    # formatting such a dt as a float raised a bare OverflowError
    with pytest.raises(DimensionError, match=rf"got dt={dt}, horizon=1\.0$"):
        step_count(1.0, dt)


def test_step_count_is_the_rounded_ratio_up_to_the_ceiling():
    assert step_count(2.0, 0.5) == 4
    assert step_count(0.3, 0.1) == 3
    assert step_count(MAX_SAMPLES * 1e-3, 1e-3) == MAX_SAMPLES


def test_divergence_reports_timestamp():
    model = two_state_model(np.array([[5.0, 0.0], [0.0, 5.0]]))
    with pytest.raises(DivergenceError) as err:
        simulate(model, [1.0, 1.0], [Zero()], [], horizon=10.0, dt=1e-2)
    assert 0.0 < err.value.t < 10.0
