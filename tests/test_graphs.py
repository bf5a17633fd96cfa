import dataclasses
import itertools
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsearch import graphs
from qwsearch.errors import CycleInconsistency
from qwsearch.graphs import (
    BALANCE_TOL,
    COMPLETE_SIZE_CAP,
    Laplacian,
    STOCHASTIC_TOL,
    TransitionGraph,
    _check_self_adjoint,
    cartesian_power,
    complete_graph,
    interior_measure_profile,
    kolmogorov_measure,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.spectral import SecularSolver

from dense_oracles import SearchHamiltonian, decompose_hamiltonian, symmetrize_hamiltonian


def cartesian_power_of_path(d):
    return cartesian_power(path_graph(0.5), d)


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


def test_complete_graph_rejects_n_above_its_cap():
    # the check comes before the N (N - 1) weights are stored
    with pytest.raises(ValueError, match=f"above the cap {COMPLETE_SIZE_CAP}"):
        complete_graph(COMPLETE_SIZE_CAP + 1)


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
    g = TransitionGraph.from_weights(3, weights, "custom")
    with pytest.raises(CycleInconsistency):
        kolmogorov_measure(g)


def test_one_way_edge_off_the_tree_rejected():
    # the breadth-first tree from 0 uses (0,1) and (0,2), both reversible;
    # the one-way edge (1,2) is met only by the detailed-balance pass
    weights = {(0, 1): 0.5, (0, 2): 0.5, (1, 0): 0.5, (1, 2): 0.5, (2, 0): 1.0}
    g = TransitionGraph.from_weights(3, weights, "custom")
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


def test_cartesian_power_rejects_a_huge_d_at_once():
    # 4**d is never formed: at d = 10^8 it took 1.6 s and a 25 MB integer
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        cartesian_power(path_graph(0.5), 10**9)
    assert time.perf_counter() - start < 1.0


def test_cartesian_power_refuses_a_1_vertex_axis_past_the_cap_at_once():
    # 1^d = 1 vertex at any d, but the edges took d steps: 1.0 s at d = 10^5,
    # whose d loop weights of 1/d no longer summed to one
    axis = TransitionGraph.from_weights(1, {(0, 0): 1.0}, "custom")
    start = time.perf_counter()
    for d in (10**5, 13):
        with pytest.raises(ValueError, match=f"d={d} is above 12"):
            cartesian_power(axis, d)
    assert time.perf_counter() - start < 0.1
    assert cartesian_power(axis, 12)[0].n == 1
    with pytest.raises(ValueError, match=r"product 2\^13 has more vertices than the cap"):
        cartesian_power(TransitionGraph.from_weights(2, {(0, 1): 1.0, (1, 0): 1.0}, "custom"), 13)


def test_cartesian_power_d8_builds_in_edge_arrays(monkeypatch):
    # 65,536 vertices and 786,432 edges; a dict of the weights peaked at 223 MiB
    monkeypatch.setattr(graphs, "PRODUCT_SIZE_CAP", 4**8)
    tracemalloc.start()
    try:
        gd, lap, _ = cartesian_power(path_graph(0.5), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gd.n == 4**8 and gd.edges[0].size == 786_432 and "matrix" not in lap.__dict__
    assert peak < 100 * 2**20


def test_complete_graph_1024_retains_its_edge_arrays():
    # three arrays of 1,047,552 edges hold 24 MiB; a dict of the weights held 120 MiB
    tracemalloc.start()
    try:
        g = complete_graph(1024)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(column.nbytes for column in g.edges) == 3 * 8 * 1024 * 1023
    assert retained < 40 * 2**20


def test_complete_graph_lists_its_edges_row_major():
    g = complete_graph(5)
    assert list(g.weights) == list(itertools.permutations(range(5), 2))
    assert set(g.weights.values()) == {0.25}


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
    axis = TransitionGraph.from_weights(2, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0}, "custom")
    gd, lap, _ = cartesian_power(axis, d)
    assert gd.weights[(0, 0)] == pytest.approx(0.5, abs=1e-15)
    assert gd.weights.get((1, 1), 0.0) == pytest.approx(0.5 * (d - 1) / d, abs=1e-15)
    np.testing.assert_allclose(lap.matrix, kronecker_sum_laplacian(axis, d), rtol=0.0, atol=1e-15)
    # the secular set-up takes the summed loops: its spectra match dense eigvalsh
    gammas = np.geomspace(1e-3, 1e3, 7)
    for w in (0, gd.n // 2, gd.n - 1):
        for gamma, energies in zip(gammas, SecularSolver(lap, w).hamiltonian_spectra(gammas)):
            dense = np.linalg.eigvalsh(symmetrize_hamiltonian(SearchHamiltonian(gamma, w, lap)).matrix)
            assert np.abs(energies - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max()), (w, gamma)


def test_not_strongly_connected_rejected():
    # two disjoint 2-cycles: every row is stochastic, but 0 never reaches 2
    weights = {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0}
    g = TransitionGraph.from_weights(4, weights, "custom")
    with pytest.raises(ValueError, match="strongly connected"):
        probabilistic_laplacian(g)


def test_row_not_summing_to_one_rejected():
    weights = {(0, 1): 1.0, (1, 0): 0.5}
    g = TransitionGraph.from_weights(2, weights, "custom")
    with pytest.raises(ValueError, match="sums to"):
        probabilistic_laplacian(g)


@pytest.mark.parametrize(
    "n, weights, message",
    [
        (2, {(0, 1): 1.0, (1, 0): 0.5, (1, 2): 0.5, (2, 1): 1.0}, r"edge \(1,2\) has an endpoint outside 0\.\.1"),
        (2, {(0, 1): 1.0, (1, 0): 0.5, (1, -1): 0.5, (-1, 1): 1.0}, r"edge \(1,-1\) has an endpoint outside 0\.\.1"),
        (0, {}, "n=0 must be an integer >= 1"),
        # 1.5 used to truncate to 1, so the first passed as the 2-cycle 0 <-> 1
        # and the second raised KeyError from the weight message; 2**70 overflowed
        (2, {(0, 1.5): 1.0, (1, 0): 1.0}, r"edge \(0,1\.5\) has an endpoint outside 0\.\.1"),
        (2, {(0, 1.5): 2.0, (1, 0): 1.0}, r"edge \(0,1\.5\) has an endpoint outside 0\.\.1"),
        (2, {(0, 2**70): 1.0, (1, 0): 1.0}, rf"edge \(0,{2**70}\) has an endpoint outside 0\.\.1"),
        # float() reads "1" as 1, so this passed as the 2-cycle 0 <-> 1
        (2, {(0, "1"): 1.0, (1, 0): 1.0}, r"edge \(0,'1'\) has an endpoint that is not a real number"),
        (2, {(0, None): 1.0, (1, 0): 1.0}, r"edge \(0,None\) has an endpoint that is not a real number"),
    ],
    ids=["endpoint-above-n", "negative-endpoint", "no-vertices", "fractional-endpoint",
         "fractional-endpoint-bad-weight", "huge-endpoint", "string-endpoint", "none-endpoint"],
)
def test_malformed_graph_rejected_by_name(n, weights, message):
    # numpy used to raise first, about an accumulation or a dimension; the
    # endpoints are checked as the graph is built, before any walk check
    with pytest.raises(ValueError, match=message):
        TransitionGraph.from_weights(n, weights, "custom")
    # the same edges as arrays, where numpy holds the mixed ones as objects
    sources, targets = (np.array([e[k] for e in weights] or np.empty(0, dtype=int)) for k in (0, 1))
    with pytest.raises(ValueError, match=message):
        TransitionGraph(n, (sources, targets, np.fromiter(weights.values(), float)), "custom")


@pytest.mark.parametrize(
    "edges, message",
    [
        (([0, 1, 1], [1, 0, 0], [1.0, 0.5, 0.5]), r"edge \(1,0\) is given more than once"),
        (([0, 1], [1, 0], [1.0]), "1-d arrays of one length"),
        (([0, 1], [1], [1.0, 1.0]), "1-d arrays of one length"),
        (([[0, 1]], [[1, 0]], [[1.0, 1.0]]), "1-d arrays of one length"),
        (([0, 1], [1, 0], ["one", "one"]), "could not convert string to float"),
        ((np.array([0.0, 1.0]), np.array([1.0, np.nan]), [1.0, 1.0]), r"edge \(1\.0,nan\) has an endpoint outside 0\.\.1"),
        (([0, 10**400], [1, 0], [1.0, 1.0]), rf"edge \(1{'0' * 400},0\) has an endpoint outside 0\.\.1"),
        # numpy holds both sources as strings
        (([0, "0"], [1, 0], [1.0, 1.0]), r"edge \('0',1\) has an endpoint that is not a real number"),
    ],
    ids=["pair-twice", "short-weights", "short-targets", "two-dimensional", "string-weight", "nan-endpoint",
         "endpoint-past-float", "string-array"],
)
def test_malformed_edge_arrays_rejected(edges, message):
    # arrays can hold what a mapping cannot: a pair twice, or columns of other lengths
    with pytest.raises(ValueError, match=message):
        TransitionGraph(2, edges, "custom")


def test_edge_arrays_are_the_graphs_own_read_only_views():
    sources, targets, p = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0])
    g = TransitionGraph(2, (sources, targets, p), "custom")
    for stored, given in zip(g.edges, (sources, targets, p)):
        assert np.shares_memory(stored, given) and not stored.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0
    assert sources.flags.writeable
    assert [column.dtype for column in g.edges] == [np.intp, np.intp, np.float64]


def test_transition_matrix_checks_the_endpoints():
    # it reads the edge arrays without the walk check, and used to put p(0, 1.5) at (0, 1)
    with pytest.raises(ValueError, match=r"edge \(0,1\.5\) has an endpoint outside 0\.\.1"):
        TransitionGraph.from_weights(2, {(0, 1.5): 1.0, (1, 0): 1.0}, "custom").transition_matrix()


@pytest.mark.parametrize(
    "build, size",
    [(cartesian_power_of_path, 2.0), (cartesian_power_of_path, True), (complete_graph, 4.0), (complete_graph, True)],
    ids=["power-float", "power-bool", "complete-float", "complete-bool"],
)
def test_graph_sizes_must_be_integers(build, size):
    # as parse_config requires of graph.d and graph.N; True used to build a 1-fold power
    with pytest.raises(ValueError, match="must be an integer"):
        build(size)


def test_weights_are_read_only():
    # the edge arrays and the check are cached, so a stored weight must not change
    given = {(1, 0): 1.0, (0, 1): 1.0}  # not in sorted order
    g = TransitionGraph.from_weights(2, given, "custom")
    before = g.transition_matrix()
    with pytest.raises(TypeError):
        g.weights[(0, 1)] = 0.5
    np.testing.assert_array_equal(g.transition_matrix(), before)
    # the view holds the mapping, in its order, and is built once
    assert g.weights == given and list(g.weights.items()) == list(given.items())
    assert g.weights is g.weights
    # graphs compare by identity, as the solver's graph check does
    same = TransitionGraph.from_weights(2, given, "custom")
    assert g != same and g == g and len({g, same}) == 2
    copy = dataclasses.replace(g, family="copy")
    assert all(map(np.array_equal, copy.edges, g.edges)) and copy.weights == g.weights and copy.family == "copy"


def test_laplacians_and_measures_compare_by_identity():
    # their generated == compared mu arrays inside a tuple, and raised ValueError
    first, second = (cartesian_power(path_graph(0.5), 2) for _ in range(2))
    # with the same fields, and on one graph, where a field-wise == would reach the measures
    twin, same_graph = Laplacian(first[0], first[2]), Laplacian(first[0], second[2])
    for a, b in ((first[1], second[1]), (first[1], twin), (first[1], same_graph), (first[2], second[2])):
        assert a == a and b == b
        assert a != b and not (a == b)


def test_interior_profile_homogeneous():
    _, lap, _ = cartesian_power(path_graph(0.5), 3)
    profile = interior_measure_profile(lap)
    assert profile.interior_constant
    assert profile.homogeneous
    assert profile.interior_min == pytest.approx(8.0, rel=1e-12)
    assert profile.interior_max == pytest.approx(8.0, rel=1e-12)


def test_interior_profile_biased_lattice():
    _, lap, measure = cartesian_power(path_graph(0.4), 2)
    profile = interior_measure_profile(lap)
    assert not profile.homogeneous
    # the measure varies across the lattice even though the strict interior
    # block is constant by the product structure
    assert measure.mu.max() > measure.mu.min() * (1.0 + 1e-9)
    assert profile.interior_min == pytest.approx((1 / 0.6) ** 2, rel=1e-12)


def test_interior_profile_single_axis():
    for p in (0.2, 0.5, 0.8):
        profile = interior_measure_profile(probabilistic_laplacian(path_graph(p)))
        assert profile.interior_constant
        assert profile.interior_min == pytest.approx(1.0 / (1.0 - p), rel=1e-12)
        assert profile.homogeneous == (p == 0.5)


def test_corner_targets_equivalent_spectra():
    # relabeling x -> 3-x per axis maps corner 0 to the opposite corner and
    # preserves weights, so both targets give the same Hamiltonian spectrum
    g, lap, _ = cartesian_power(path_graph(0.35), 2)
    e_first = decompose_hamiltonian(SearchHamiltonian(0.9, 0, lap)).eigenvalues
    e_last = decompose_hamiltonian(SearchHamiltonian(0.9, g.n - 1, lap)).eigenvalues
    np.testing.assert_allclose(e_first, e_last, atol=1e-10)


# ---------------------------------------------------------------------------
# the per-edge loops the edge arrays replaced, kept as oracles


def loop_transition_matrix(g):
    P = np.zeros((g.n, g.n))
    for (x, y), p in g.weights.items():
        P[x, y] = p
    return P


def loop_laplacian(g):
    delta = loop_transition_matrix(g)
    np.subtract(0.0, delta, out=delta)
    delta.flat[:: g.n + 1] += 1.0
    return delta


def loop_validate_graph(g):
    row_sums = np.zeros(g.n)
    for (x, y), p in g.weights.items():
        if not (0.0 < p <= 1.0):
            raise ValueError(f"edge weight p({x},{y})={p} outside (0, 1]")
        row_sums[x] += p
    if np.abs(row_sums - 1.0).max() > STOCHASTIC_TOL:
        bad = int(np.abs(row_sums - 1.0).argmax())
        raise ValueError(f"row {bad} of the transition matrix sums to {row_sums[bad]}")
    if not loop_strongly_connected(g):
        raise ValueError("graph is not strongly connected")


def loop_strongly_connected(g):
    fwd = [[] for _ in range(g.n)]
    bwd = [[] for _ in range(g.n)]
    for x, y in g.weights:
        fwd[x].append(y)
        bwd[y].append(x)

    def reaches_all(adj):
        seen = {0}
        todo = deque([0])
        while todo:
            u = todo.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return len(seen) == g.n

    return reaches_all(fwd) and reaches_all(bwd)


def loop_reverse_weight(g, x, y):
    back = g.weights.get((y, x))
    if back is None:
        raise CycleInconsistency(f"edge ({x},{y}) has no reverse edge; walk is not reversible")
    return back


def loop_kolmogorov_measure(g):
    loop_validate_graph(g)
    mu = np.full(g.n, np.nan)
    mu[0] = 1.0
    adj = [[] for _ in range(g.n)]
    for x, y in g.weights:
        adj[x].append(y)
    for nbrs in adj:
        nbrs.sort()
    todo = deque([0])
    while todo:
        x = todo.popleft()
        for y in adj[x]:
            if not np.isnan(mu[y]):
                continue
            mu[y] = mu[x] * g.weights[(x, y)] / loop_reverse_weight(g, x, y)
            todo.append(y)
    for (x, y), p in g.weights.items():
        flow = mu[x] * p
        back_flow = mu[y] * loop_reverse_weight(g, x, y)
        if abs(flow - back_flow) > BALANCE_TOL * max(abs(flow), abs(back_flow)):
            raise CycleInconsistency(f"detailed balance fails on edge ({x},{y}): {flow} vs {back_flow}")
    return mu


def blockwise_check_self_adjoint(delta, mu, block=128):
    skew = scale = 0.0
    for i in range(0, delta.shape[0], block):
        rows = mu[i : i + block, None] * delta[i : i + block]
        cols = (mu[:, None] * delta[:, i : i + block]).T
        skew = max(skew, float(np.abs(rows - cols).max()))
        scale = max(scale, float(np.abs(rows).max()))
    if skew > 1e-12 * max(scale, 1.0):
        raise CycleInconsistency(f"M Delta is not symmetric (defect {skew:.3e}); measure inconsistent")


def outcome(f, *args):
    """What f returns, with arrays as their bytes, or the type and text of what it raises."""
    try:
        result = f(*args)
    except (ValueError, CycleInconsistency) as exc:
        return type(exc), str(exc)
    return result.tobytes() if isinstance(result, np.ndarray) else "ok"


GRAPH_KINDS = ["reversible", "not reversible", "not strongly connected", "row sum off", "missing reverse edge"]


@st.composite
def weighted_digraphs(draw, kind):
    """A random weighted digraph of one kind, its edges stored in a shuffled order.

    Reversible walks come from symmetric conductances c(x, y) = c(y, x) > 0,
    with p(x, y) = c(x, y) / sum_z c(x, z); the others break that on purpose.
    """
    split = kind == "not strongly connected"
    n = draw(st.integers(min_value=4 if split else 2, max_value=12))
    # vertices below cut and from cut on: two parts, each spanned by a tree
    cut = n // 2 if split else n
    conductance = st.floats(min_value=0.01, max_value=10.0)
    pairs = {(draw(st.integers(0 if y < cut else cut, y - 1)), y) for y in range(1, n) if y != cut}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs |= {(min(x, y), max(x, y)) for x, y in extra if (x < cut) == (y < cut)}
    c = {pair: draw(conductance) for pair in sorted(pairs)}
    edges = {}
    for (x, y), w in c.items():
        edges[(x, y)] = w
        edges[(y, x)] = w if kind != "not reversible" else draw(conductance)
    if split:
        edges[(0, cut)] = draw(conductance)  # one way from the first part to the second
    if kind == "missing reverse edge":
        one_way = [e for e in sorted(edges) if e[0] != e[1]]
        for e in draw(st.lists(st.sampled_from(one_way), min_size=1, max_size=3, unique=True)):
            edges.pop(e)
    totals = np.zeros(n)
    for (x, _), w in edges.items():
        totals[x] += w
    weights = {(x, y): w / totals[x] for (x, y), w in edges.items()}
    if kind == "row sum off":
        x, y = draw(st.sampled_from(sorted(weights)))
        # a weight of 1 raised past 1 is out of range before its row sum is off
        weights[(x, y)] *= 1.0 + draw(st.sampled_from([-1e-3, -1e-9, -2e-12, 2e-12, 1e-9]))
    order = draw(st.permutations(sorted(weights)))
    return TransitionGraph.from_weights(n, {e: weights[e] for e in order}, "custom")


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_array_checks_match_the_loop_oracles(kind, data):
    g = data.draw(weighted_digraphs(kind))
    assert g.transition_matrix().tobytes() == loop_transition_matrix(g).tobytes()
    assert outcome(lambda: g._tree and None) == outcome(loop_validate_graph, g)
    # the verdict, the exception type and message, or mu to the bit
    assert outcome(lambda: kolmogorov_measure(g).mu) == outcome(loop_kolmogorov_measure, g)
    if kind == "reversible":
        assert isinstance(outcome(lambda: kolmogorov_measure(g).mu), bytes)


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_self_adjoint_check_matches_the_blockwise_oracle(kind, data):
    g = data.draw(weighted_digraphs(kind))
    delta = loop_laplacian(g)
    mu = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=g.n, max_size=g.n)))
    if data.draw(st.booleans()):
        # the measure, scaled up and nudged near the 1e-12 relative limit at one vertex
        try:
            mu = loop_kolmogorov_measure(g) * data.draw(st.sampled_from([1.0, 30.0, 1e4]))
        except (ValueError, CycleInconsistency):
            pass
        mu[data.draw(st.integers(0, g.n - 1))] *= 1.0 + data.draw(st.floats(0.0, 2e-11))
    assert outcome(_check_self_adjoint, g, mu) == outcome(blockwise_check_self_adjoint, delta, mu)


@pytest.mark.parametrize("reversible", [True, False])
def test_measure_follows_the_queue_order_of_the_bfs(reversible):
    # a walk round the ring 0-1-5-4-3-2: the queue reaches 5 before 3 (from 1,
    # then from 2), so 4 takes its measure from 5, where a level taken in
    # vertex order would take it from 3
    ring = [0, 1, 5, 4, 3, 2]
    ahead = [0.3, 0.7, 0.4, 0.6, 0.2, 0.8 if reversible else 0.9]
    weights = {}
    for k, x in enumerate(ring):
        weights[(x, ring[(k + 1) % 6])] = ahead[k]
        weights[(x, ring[k - 1])] = 1.0 - ahead[k]
    g = TransitionGraph.from_weights(6, weights, "custom")
    expected = outcome(loop_kolmogorov_measure, g)
    assert isinstance(expected, bytes) == reversible
    assert outcome(lambda: kolmogorov_measure(g).mu) == expected


def test_measure_names_the_first_one_way_edge_of_the_tree():
    # both tree edges (0, 2) and (0, 3) lack a reverse; the queue meets (0, 2)
    # first, while the detailed-balance pass, in weights order, would meet (0, 3)
    third = 1.0 / 3.0
    weights = {
        (0, 1): third, (0, 3): third, (0, 2): third,
        (1, 0): third, (1, 2): third, (1, 3): third,
        (2, 1): 1.0, (3, 1): 1.0,
    }
    g = TransitionGraph.from_weights(4, weights, "custom")
    message = "edge (0,2) has no reverse edge; walk is not reversible"
    assert outcome(loop_kolmogorov_measure, g) == (CycleInconsistency, message)
    assert outcome(lambda: kolmogorov_measure(g).mu) == outcome(loop_kolmogorov_measure, g)


def test_self_adjoint_scale_includes_the_diagonal():
    # the largest |mu Delta| entry is mu(1) Delta(1, 1) = 2000, twice any edge
    # entry; a skew of 1.5e-9 passes against it and would fail against 1000
    g = path_graph(0.5)
    mu = np.array([1000.0 + 1.5e-9, 2000.0, 2000.0, 1000.0])
    delta = loop_laplacian(g)
    assert outcome(blockwise_check_self_adjoint, delta, mu) == "ok"
    assert outcome(_check_self_adjoint, g, mu) == "ok"


def test_self_adjoint_check_crosses_blocks_like_the_oracle():
    # 256 vertices: the oracle's 128-row blocks both see the defect of edge (0, 255)
    g = complete_graph(256)
    delta = loop_laplacian(g)
    mu = np.ones(g.n)
    mu[255] = 1.0 + 1e-9
    expected = outcome(blockwise_check_self_adjoint, delta, mu)
    assert expected[0] is CycleInconsistency
    assert outcome(_check_self_adjoint, g, mu) == expected


def lazy_axis():
    return TransitionGraph.from_weights(2, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0}, "custom")


@pytest.mark.parametrize(
    "build",
    [lambda d=d: cartesian_power(path_graph(0.91), d) for d in range(1, 6)]
    + [lambda d=d: cartesian_power(lazy_axis(), d) for d in range(1, 4)]
    + [lambda n=n: (complete_graph(n),) for n in (2, 5, 64)],
    ids=[f"lattice-d{d}" for d in range(1, 6)] + [f"lazy-d{d}" for d in range(1, 4)] + ["K2", "K5", "K64"],
)
def test_laplacian_bits_match_the_loop_assembly(build):
    g = build()[0]
    lap = probabilistic_laplacian(g)
    assert lap.matrix.tobytes() == loop_laplacian(g).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        lap.matrix[0, 0] = 0.0
    # the cells, in row-major order, hold every cell of the matrix that is not +0.0
    rows, cols, values = lap.cells()
    assert (np.diff(rows * g.n + cols) > 0).all()
    stored = np.zeros((g.n, g.n), dtype=bool)
    stored[rows, cols] = True
    assert not lap.matrix[~stored].view(np.int64).any()
    assert values.tobytes() == lap.matrix[rows, cols].tobytes()
    assert lap.measure.mu.tobytes() == loop_kolmogorov_measure(g).tobytes()
    if g.family == "product":
        assert build()[1].matrix.tobytes() == lap.matrix.tobytes()
