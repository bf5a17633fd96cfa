import itertools
import tracemalloc

import numpy as np
import pytest

from qwsearch.errors import CycleInconsistency, NonSymmetrizable
from qwsearch.graphs import (
    TransitionGraph,
    cartesian_power,
    complete_graph,
    interior_measure_profile,
    kolmogorov_measure,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.spectral import SecularSolver


def measure_by_recursion(g):
    """Independent oracle: propagate the flow-balance recursion edge by edge."""
    mu = {0: 1.0}
    while len(mu) < g.n:
        for (x, y), p in sorted(g.weights.items()):
            if x in mu and y not in mu:
                mu[y] = mu[x] * p / g.weights[(y, x)]
    return np.array([mu[x] for x in range(g.n)])


def kronecker_sum_laplacian(g, d):
    """Independent oracle: (1/d) sum_k I x .. x (I - P_axis) (k-th factor) x .. x I."""
    axis_delta = np.eye(g.n) - g.transition_matrix()
    delta = np.zeros((g.n**d, g.n**d))
    for k in range(d):
        term = np.array([[1.0]])
        for j in range(d):
            term = np.kron(term, axis_delta if j == k else np.eye(g.n))
        delta += term
    delta /= d
    return delta


def product_weights_by_vertex(g, d):
    """Independent oracle: every one-axis move of every lattice vertex, weight p/d."""

    def index(coords):
        return sum(c * g.n ** (d - 1 - k) for k, c in enumerate(coords))

    weights = {}
    for coords in itertools.product(range(g.n), repeat=d):
        for k in range(d):
            for (a, b), p in g.weights.items():
                if a == coords[k]:
                    moved = coords[:k] + (b,) + coords[k + 1:]
                    weights[(index(coords), index(moved))] = p / d
    return weights


def test_path_laplacian_half():
    lap = probabilistic_laplacian(path_graph(0.5))
    expected = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    np.testing.assert_allclose(lap.matrix, expected, atol=1e-15)


def test_path_laplacian_general_p_row():
    lap = probabilistic_laplacian(path_graph(0.25))
    np.testing.assert_allclose(lap.matrix[1], [-0.75, 1.0, -0.25, 0.0], atol=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.73, 0.91])
def test_path_rows_stochastic(p):
    P = path_graph(p).transition_matrix()
    np.testing.assert_allclose(P.sum(axis=1), np.ones(4), atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
def test_path_rejects_bad_p(p):
    with pytest.raises(ValueError):
        path_graph(p)


def test_path_reversal_symmetry():
    for p in (0.2, 0.5, 0.8):
        g = path_graph(p)
        for (x, y), w in g.weights.items():
            assert g.weights[(3 - x, 3 - y)] == pytest.approx(w, abs=0)


def test_complete_graph_laplacian():
    lap = probabilistic_laplacian(complete_graph(4))
    off = lap.matrix[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(np.diag(lap.matrix), 1.0, atol=0)


def test_complete_graph_two_vertices():
    lap = probabilistic_laplacian(complete_graph(2))
    np.testing.assert_allclose(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=0)


def test_complete_graph_matches_combinatorial_laplacian():
    n = 16
    lap = probabilistic_laplacian(complete_graph(n))
    adjacency = np.ones((n, n)) - np.eye(n)
    combinatorial = (n - 1) * np.eye(n) - adjacency
    np.testing.assert_array_equal((n - 1) * lap.matrix, combinatorial)


def test_complete_graph_rejects_small_n():
    with pytest.raises(ValueError):
        complete_graph(1)


@pytest.mark.parametrize("p", [0.1, 0.4, 0.5, 0.91])
def test_path_measure_closed_form(p):
    m = kolmogorov_measure(path_graph(p))
    expected = np.array([1.0, 1.0 / (1.0 - p), 1.0 / (1.0 - p), 1.0])
    np.testing.assert_allclose(m.mu, expected, rtol=1e-14)
    assert m.volume == pytest.approx(2.0 + 2.0 / (1.0 - p), rel=1e-14)
    np.testing.assert_allclose(m.mu, measure_by_recursion(path_graph(p)), rtol=1e-14)


def test_path_measure_half():
    m = kolmogorov_measure(path_graph(0.5))
    np.testing.assert_allclose(m.mu, [1.0, 2.0, 2.0, 1.0], atol=0)
    assert m.volume == 6.0


def test_complete_measure_uniform():
    m = kolmogorov_measure(complete_graph(7))
    np.testing.assert_allclose(m.mu, np.ones(7), atol=0)
    assert m.volume == 7.0


def test_measure_volume_is_plain_sum():
    m = kolmogorov_measure(path_graph(0.37))
    assert m.volume == float(m.mu.sum())


def test_nonreversible_cycle_rejected():
    # row-stochastic 3-cycle whose clockwise and counterclockwise weight
    # products differ, so no detailed-balance measure exists
    weights = {
        (0, 1): 0.6, (0, 2): 0.4,
        (1, 2): 0.6, (1, 0): 0.4,
        (2, 0): 0.6, (2, 1): 0.4,
    }
    g = TransitionGraph(3, weights, "custom")
    with pytest.raises(CycleInconsistency):
        kolmogorov_measure(g)


def test_one_way_edge_off_the_tree_rejected():
    # the breadth-first tree from 0 uses (0,1) and (0,2), both reversible;
    # the one-way edge (1,2) is met only by the detailed-balance pass
    weights = {(0, 1): 0.5, (0, 2): 0.5, (1, 0): 0.5, (1, 2): 0.5, (2, 0): 1.0}
    g = TransitionGraph(3, weights, "custom")
    with pytest.raises(CycleInconsistency, match="has no reverse edge"):
        kolmogorov_measure(g)


def test_detailed_balance_on_all_edges():
    for p in (0.3, 0.8):
        g, _, measure = cartesian_power(path_graph(p), 2)
        for (x, y), w in g.weights.items():
            fwd = measure.mu[x] * w
            bwd = measure.mu[y] * g.weights[(y, x)]
            assert fwd == pytest.approx(bwd, rel=1e-12)


def test_cartesian_power_identity():
    g = path_graph(0.6)
    gd, lap, measure = cartesian_power(g, 1)
    assert gd.weights == g.weights
    np.testing.assert_allclose(
        lap.matrix, probabilistic_laplacian(g).matrix, atol=1e-15
    )
    np.testing.assert_allclose(measure.mu, kolmogorov_measure(g).mu, atol=0)


def test_cartesian_power_spectrum_is_pair_averages():
    g = path_graph(0.5)
    axis_evals = np.linalg.eigvalsh(
        np.diag([1.0, np.sqrt(2), np.sqrt(2), 1.0])
        @ probabilistic_laplacian(g).matrix
        @ np.diag([1.0, 1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 1.0])
    )
    np.testing.assert_allclose(axis_evals, [0.0, 0.5, 1.5, 2.0], atol=1e-12)
    _, lap, measure = cartesian_power(g, 2)
    sq = np.sqrt(measure.mu)
    sym = (sq[:, None] * lap.matrix) / sq[None, :]
    product_evals = np.sort(np.linalg.eigvalsh(sym))
    pairs = np.sort([(a + b) / 2.0 for a in axis_evals for b in axis_evals])
    np.testing.assert_allclose(product_evals, pairs, atol=1e-9)


def test_cartesian_power_lexicographic_indexing():
    p = 0.3
    g, _, _ = cartesian_power(path_graph(p), 2)
    # first axis most significant: vertex (x1, x2) has index 4*x1 + x2
    assert g.weights[(0, 1)] == pytest.approx(0.5 * 1.0)      # (0,0)->(0,1)
    assert g.weights[(0, 4)] == pytest.approx(0.5 * 1.0)      # (0,0)->(1,0)
    assert g.weights[(5, 4)] == pytest.approx(0.5 * (1 - p))  # (1,1)->(1,0)
    assert g.weights[(5, 1)] == pytest.approx(0.5 * (1 - p))  # (1,1)->(0,1)
    assert g.weights[(5, 6)] == pytest.approx(0.5 * p)        # (1,1)->(1,2)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.91])
def test_volume_power_law(p):
    _, _, measure = cartesian_power(path_graph(p), 5)
    assert measure.volume == pytest.approx((2.0 + 2.0 / (1.0 - p)) ** 5, rel=1e-12)


def test_cartesian_power_rejects_bad_dimension():
    with pytest.raises(ValueError):
        cartesian_power(path_graph(0.5), 0)


def test_cartesian_power_size_cap():
    with pytest.raises(ValueError):
        cartesian_power(path_graph(0.5), 10)  # 4^10 > 4^6


def test_cartesian_power_d7_rejected_before_allocating():
    g = path_graph(0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            cartesian_power(g, 7)  # 4^7 vertices: 2 GiB per dense matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cartesian_power_d5_holds_one_dense_matrix():
    g = path_graph(0.5)
    tracemalloc.start()
    try:
        _, lap, _ = cartesian_power(g, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lap.matrix.nbytes == 8 * 1024**2  # 8.4 MB
    assert peak < 26e6


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.91, 0.123456])
def test_cartesian_power_matches_kronecker_sum(p, d):
    g = path_graph(p)
    gd, lap, measure = cartesian_power(g, d)
    assert lap.matrix.tobytes() == kronecker_sum_laplacian(g, d).tobytes()
    assert gd.weights == product_weights_by_vertex(g, d)
    assert lap.graph is gd and lap.measure is measure
    # the Kronecker power of the axis measure, bit for bit
    mu = np.array([1.0])
    for _ in range(d):
        mu = np.kron(mu, kolmogorov_measure(g).mu)
    assert measure.mu.tobytes() == mu.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cartesian_power_sums_an_axis_self_loop(d):
    # a lazy 2-vertex axis: every axis adds p(0, 0)/d to the loop of a vertex
    # whose coordinate on it is 0, so the corner keeps the axis's 0.5
    axis = TransitionGraph(2, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0}, "custom")
    gd, lap, _ = cartesian_power(axis, d)
    assert gd.weights[(0, 0)] == pytest.approx(0.5, abs=1e-15)
    assert gd.weights.get((1, 1), 0.0) == pytest.approx(0.5 * (d - 1) / d, abs=1e-15)
    np.testing.assert_allclose(lap.matrix, kronecker_sum_laplacian(axis, d), rtol=0.0, atol=1e-15)
    # the secular set-up still takes no self-loop, and says so
    with pytest.raises(NonSymmetrizable, match="self-loop"):
        SecularSolver(lap, 0)


def test_not_strongly_connected_rejected():
    # two disjoint 2-cycles: every row is stochastic, but 0 never reaches 2
    weights = {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0}
    g = TransitionGraph(4, weights, "custom")
    with pytest.raises(ValueError, match="strongly connected"):
        probabilistic_laplacian(g)


def test_row_not_summing_to_one_rejected():
    weights = {(0, 1): 1.0, (1, 0): 0.5}
    g = TransitionGraph(2, weights, "custom")
    with pytest.raises(ValueError, match="sums to"):
        probabilistic_laplacian(g)


def test_interior_profile_homogeneous():
    g, _, _ = cartesian_power(path_graph(0.5), 3)
    profile = interior_measure_profile(g)
    assert profile.interior_constant
    assert profile.homogeneous
    assert profile.interior_min == pytest.approx(8.0, rel=1e-12)
    assert profile.interior_max == pytest.approx(8.0, rel=1e-12)


def test_interior_profile_biased_lattice():
    g, _, _ = cartesian_power(path_graph(0.4), 2)
    profile = interior_measure_profile(g)
    assert not profile.homogeneous
    # the measure varies across the lattice even though the strict interior
    # block is constant by the product structure
    assert profile.graph_max > profile.graph_min * (1.0 + 1e-9)
    assert profile.interior_min == pytest.approx((1 / 0.6) ** 2, rel=1e-12)


def test_interior_profile_single_axis():
    for p in (0.2, 0.5, 0.8):
        profile = interior_measure_profile(path_graph(p))
        assert profile.interior_constant
        assert profile.interior_min == pytest.approx(1.0 / (1.0 - p), rel=1e-12)
        assert profile.homogeneous == (p == 0.5)


def test_corner_targets_equivalent_spectra():
    # relabeling x -> 3-x per axis maps corner 0 to the opposite corner and
    # preserves weights, so both targets give the same Hamiltonian spectrum
    from qwsearch.spectral import SearchHamiltonian, decompose

    g, lap, _ = cartesian_power(path_graph(0.35), 2)
    e_first = decompose(SearchHamiltonian(0.9, 0, lap)).eigenvalues
    e_last = decompose(SearchHamiltonian(0.9, g.n - 1, lap)).eigenvalues
    np.testing.assert_allclose(e_first, e_last, atol=1e-10)
