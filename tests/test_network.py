"""Graph Laplacian algebra and its spectral certificates."""
import numpy as np
import pytest

from dduio.errors import ConnectivityError, GraphError
from dduio.network import SensorGraph, complete, from_edges, path, ring, star

from conftest import decomposition_spy, random_connected_graph


def reduced(laplacian, drop):
    """The Laplacian without node ``drop``'s row and column."""
    return np.delete(np.delete(laplacian, drop, axis=0), drop, axis=1)


def test_ring_of_one_or_two_nodes_is_a_path():
    assert ring(1).adjacency.tobytes() == np.zeros((1, 1)).tobytes()
    assert np.array_equal(ring(2, 2.5).adjacency, [[0.0, 2.5], [2.5, 0.0]])
    assert np.array_equal(ring(3).adjacency, complete(3).adjacency)


def test_two_node_complete_graph():
    g = complete(2)
    assert np.array_equal(g.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(reduced(g.laplacian, 0), [[1.0]])
    assert g.lambda_min_reduced(0) == pytest.approx(1.0)


def test_path_graph_spectrum_and_reduced():
    g = path(3)
    assert np.allclose(np.linalg.eigvalsh(g.laplacian), [0.0, 1.0, 3.0], atol=1e-12)
    assert np.array_equal(reduced(g.laplacian, 0), [[2.0, -1.0], [-1.0, 1.0]])
    # eigenvalues of [[2,-1],[-1,1]] are (3 +- sqrt(5))/2
    assert g.lambda_min_reduced(0) == pytest.approx((3 - np.sqrt(5)) / 2)


def test_star_graph_connected():
    g = star(5)
    zero_count = int(np.sum(np.abs(np.linalg.eigvalsh(g.laplacian)) < 1e-9))
    assert zero_count == 1
    assert g.lambda_min_reduced(0) > 0


def test_complete_graph_reduced_spectrum():
    g = complete(5)
    w = np.linalg.eigvalsh(reduced(g.laplacian, 0))
    assert np.allclose(np.sort(w), [1.0, 5.0, 5.0, 5.0], atol=1e-12)
    assert g.lambda_min_reduced(0) == pytest.approx(1.0)


def test_disconnected_graph_rejected():
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[2, 3] = adj[3, 2] = 1.0
    with pytest.raises(ConnectivityError, match="not connected"):
        SensorGraph(adj)
    with pytest.raises(ConnectivityError):
        from_edges(4, [(0, 1), (2, 3)], 1.0)
    with pytest.raises(ConnectivityError):
        SensorGraph(np.zeros((2, 2)))
    # one node needs no edge
    assert SensorGraph(np.zeros((1, 1))).lambda_min_reduced(0) == float("inf")


def test_forced_disconnected_reduced_fails_certificate():
    # Two disjoint edges: the reduced Laplacian keeps a zero mode, so the
    # certificate lambda_min > 0 would fail had the graph been accepted.
    lap = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]])
    lam_min = float(np.linalg.eigvalsh(reduced(lap, 0))[0])
    assert not lam_min > 0.0
    assert lam_min <= 1e-12
    with pytest.raises(ConnectivityError):
        SensorGraph(np.diag(np.diag(lap)) - lap)


def test_graph_invariants_rejected():
    with pytest.raises(GraphError):
        SensorGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(GraphError):
        SensorGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(GraphError):
        SensorGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self weight
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)], 1.0)


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_non_finite_weight_rejected(weight):
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    a[0, 1] = a[1, 0] = weight
    with pytest.raises(GraphError, match="^adjacency weights must be finite$"):
        SensorGraph(a)


def test_from_edges_weights():
    g = from_edges(3, [(0, 1), (1, 2, 0.5)], 2.0)
    assert np.array_equal(g.adjacency, [[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    assert np.array_equal(from_edges(2, [(0, 1)], 1.0).adjacency, complete(2).adjacency)


def test_row_sums_zero_and_reduced_definite_random_graphs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        assert np.max(np.abs(g.laplacian.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(g.laplacian.sum(axis=1))) <= 1e-12
        assert np.array_equal(g.laplacian, np.diag(g.adjacency.sum(axis=1)) - g.adjacency)
        assert g.lambda_min_reduced(0) > 0


def test_kronecker_preserves_smallest_eigenvalue():
    g = ring(5)
    for n in (1, 2, 3):
        kron = np.kron(reduced(g.laplacian, 0), np.eye(n))
        lam = np.linalg.eigvalsh(kron)[0]
        assert lam == pytest.approx(g.lambda_min_reduced(0), rel=1e-12)


def test_named_generators_shapes():
    for gen, m in ((ring, 5), (complete, 4), (star, 6), (path, 3)):
        g = gen(m)
        assert g.M == m
        assert g.laplacian.shape == (m, m)


def test_reduced_drop_index():
    g = star(5)
    # dropping the hub leaves four isolated leaves tied to it: eigenvalue 1
    assert g.lambda_min_reduced(0) == pytest.approx(1.0)
    assert g.lambda_min_reduced(2) == pytest.approx(
        np.linalg.eigvalsh(reduced(g.laplacian, 2))[0], rel=1e-14)
    assert 0 < g.lambda_min_reduced(2) < g.lambda_min_reduced(0)


def test_lambda_min_reduced_is_taken_once_per_leader():
    g = random_connected_graph(np.random.default_rng(11), 6)
    with decomposition_spy() as calls:
        first = [g.lambda_min_reduced(drop) for drop in (0, 3, 0, 3, 3)]
    assert first == [g.lambda_min_reduced(0), g.lambda_min_reduced(3)] * 2 \
        + [g.lambda_min_reduced(3)]
    assert [shape for shape, _ in calls] == [(5, 5), (5, 5)]
    assert first[0] == float(np.linalg.eigvalsh(reduced(g.laplacian, 0))[0])


@pytest.mark.parametrize("edges, match", [
    ([(0, 1), (1, -1)], r"^edges\[1\] needs two distinct node indices in \[0, 3\), got \(1, -1\)$"),
    ([(0, 1.5), (1, 2)], r"^edges\[0\] needs two distinct node indices in \[0, 3\), got \(0, 1.5\)$"),
    ([(0, 1), (1, 5)], r"^edges\[1\] needs two distinct node indices in \[0, 3\), got \(1, 5\)$"),
    ([(0, 1), (True, 2)], r"^edges\[1\] needs two distinct node indices .* got \(True, 2\)$"),
    ([[0, 1, 0.0], (1, 2)], r"^edges\[0\] weight must be a finite number > 0, got 0.0$"),
    ([(0, 1, float("nan")), (1, 2)], r"^edges\[0\] weight must be a finite number > 0, got nan$"),
    ([(0, 1), (1,)], r"^edges\[1\] must be \[i, j\] or \[i, j, weight\], got \(1,\)$"),
], ids=["negative-index", "float-index", "out-of-range", "bool-index", "zero-weight",
        "nan-weight", "short-entry"])
def test_from_edges_refuses_a_misread_entry(edges, match):
    # unchecked, each entry would be read as some other graph or fail with a
    # bare IndexError
    with pytest.raises(GraphError, match=match):
        from_edges(3, edges, 1.0)


def test_from_edges_refuses_a_zero_default_weight():
    with pytest.raises(GraphError, match=r"^edges\[0\] weight must be a finite number > 0, got 0.0$"):
        path(3, 0.0)


@pytest.mark.parametrize("edges, match", [
    ([(0, 1), (1, 0, 7.0), (1, 2)],
     r"^edges\[0\] and edges\[1\] both join nodes \[0, 1\]; list each edge once$"),
    ([(0, 1), (1, 2), (0, 1)], r"^edges\[0\] and edges\[2\] both join nodes \[0, 1\]"),
    # every entry is checked before any repeat is named
    ([(0, 1), (1, 0), (0, 5)], r"^edges\[2\] needs two distinct node indices"),
    ([(0, 1, True), (1, 2)], r"^edges\[0\] weight must be a finite number > 0, got True$"),
    ([(0, 1, 10 ** 400), (1, 2)], r"^edges\[0\] weight must be a finite number > 0, got 1000"),
    ([(0, 1), 5], r"^edges\[1\] must be \[i, j\] or \[i, j, weight\], got 5$"),
], ids=["repeated-reversed", "repeated-exact", "bad-entry-after-repeat", "bool-weight",
        "huge-integer-weight", "bare-number"])
def test_from_edges_refuses_a_repeated_or_malformed_entry(edges, match):
    # unchecked, the repeat would keep its last weight, True would read as 1.0,
    # and the last two would fail with a bare TypeError
    with pytest.raises(GraphError, match=match):
        from_edges(3, edges, 1.0)
