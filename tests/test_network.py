"""Graph Laplacian algebra and its spectral certificates."""
import numpy as np
import pytest

from dduio.errors import ConnectivityError, GraphError
from dduio.network import (LaplacianBundle, SensorGraph, build_laplacian, complete,
                           from_edges, path, reduced_laplacian, ring, star)

from conftest import random_connected_graph


def test_ring_of_one_or_two_nodes_is_a_path():
    assert ring(1).adjacency.tobytes() == np.zeros((1, 1)).tobytes()
    assert np.array_equal(ring(2, 2.5).adjacency, [[0.0, 2.5], [2.5, 0.0]])
    assert np.array_equal(ring(3).adjacency, complete(3).adjacency)


def test_two_node_complete_graph():
    bundle = build_laplacian(complete(2))
    assert np.array_equal(bundle.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(bundle.reduced, [[1.0]])
    assert bundle.lambda_min_reduced == pytest.approx(1.0)


def test_path_graph_spectrum_and_reduced():
    bundle = build_laplacian(path(3))
    assert np.allclose(np.sort(bundle.spectrum), [0.0, 1.0, 3.0], atol=1e-12)
    assert np.array_equal(bundle.reduced, [[2.0, -1.0], [-1.0, 1.0]])
    # eigenvalues of [[2,-1],[-1,1]] are (3 +- sqrt(5))/2
    assert bundle.lambda_min_reduced == pytest.approx((3 - np.sqrt(5)) / 2)


def test_star_graph_connected():
    bundle = build_laplacian(star(5))
    zero_count = int(np.sum(np.abs(bundle.spectrum) < 1e-9))
    assert zero_count == 1
    assert bundle.lambda_min_reduced > 0


def test_complete_graph_reduced_spectrum():
    bundle = build_laplacian(complete(5))
    w = np.linalg.eigvalsh(bundle.reduced)
    assert np.allclose(np.sort(w), [1.0, 5.0, 5.0, 5.0], atol=1e-12)
    assert bundle.lambda_min_reduced == pytest.approx(1.0)


def test_disconnected_graph_rejected():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    with pytest.raises(ConnectivityError):
        build_laplacian(SensorGraph(adj))


def test_forced_disconnected_reduced_fails_certificate():
    # Two disjoint edges: the reduced Laplacian keeps a zero mode.
    lap = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]])
    red = reduced_laplacian(lap, 0)
    bundle = LaplacianBundle(laplacian=lap, reduced=red,
                             lambda_min_reduced=float(np.linalg.eigvalsh(red)[0]),
                             spectrum=np.linalg.eigvalsh(lap))
    assert not bundle.lambda_min_reduced > 0.0
    assert bundle.lambda_min_reduced <= 1e-12


def test_graph_invariants_rejected():
    with pytest.raises(GraphError):
        SensorGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(GraphError):
        SensorGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(GraphError):
        SensorGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self weight
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)])


def test_row_sums_zero_and_reduced_definite_random_graphs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        bundle = build_laplacian(g)
        assert np.max(np.abs(bundle.laplacian.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(bundle.laplacian.sum(axis=1))) <= 1e-12
        assert bundle.lambda_min_reduced > 0


def test_kronecker_preserves_smallest_eigenvalue():
    bundle = build_laplacian(ring(5))
    for n in (1, 2, 3):
        kron = np.kron(bundle.reduced, np.eye(n))
        lam = np.linalg.eigvalsh(kron)[0]
        assert lam == pytest.approx(bundle.lambda_min_reduced, rel=1e-12)


def test_named_generators_shapes():
    for gen, m in ((ring, 5), (complete, 4), (star, 6), (path, 3)):
        g = gen(m)
        assert g.M == m
        build_laplacian(g)


def test_reduced_drop_index():
    bundle = build_laplacian(ring(5), drop=2)
    assert bundle.reduced.shape == (4, 4)
    assert bundle.lambda_min_reduced > 0
