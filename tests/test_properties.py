import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsearch import spectral
from qwsearch.errors import ConvergenceFailure, DegenerateLowStates, NumericalFailure
from qwsearch.graphs import (
    TransitionGraph,
    cartesian_power,
    complete_graph,
    kolmogorov_measure,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import _curve, _exp_sum, _grid_curve, evolve, success_curve
from qwsearch.spectral import (
    SearchHamiltonian,
    SecularSolver,
    decompose,
    overlaps_direct,
    overlaps_via_green,
    symmetrize,
    theorem_bound_report,
)

st_p = st.floats(min_value=0.02, max_value=0.98)
st_gamma = st.floats(min_value=0.2, max_value=2.0)


def assert_graph_invariants(g, lap, measure):
    P = g.transition_matrix()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(lap.matrix.sum(axis=1), 0.0, atol=1e-10)
    weighted = measure.mu[:, None] * lap.matrix
    assert np.abs(weighted - weighted.T).max() < 1e-10 * max(np.abs(weighted).max(), 1.0)
    for (x, y), w in g.weights.items():
        assert measure.mu[x] * w == pytest.approx(
            measure.mu[y] * g.weights[(y, x)], rel=1e-10
        )
    evals = np.linalg.eigvalsh(symmetrize(lap).matrix)
    assert evals[0] > -1e-10
    assert evals[-1] < 2.0 + 1e-10


@settings(max_examples=40, deadline=None)
@given(p=st_p)
def test_path_invariants(p):
    g = path_graph(p)
    lap = probabilistic_laplacian(g)
    assert_graph_invariants(g, lap, lap.measure)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_complete_invariants(n):
    g = complete_graph(n)
    lap = probabilistic_laplacian(g)
    assert_graph_invariants(g, lap, lap.measure)
    np.testing.assert_allclose(kolmogorov_measure(g).mu, 1.0, atol=0)


@settings(max_examples=15, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=3))
def test_product_invariants(p, d):
    g, lap, measure = cartesian_power(path_graph(p), d)
    assert_graph_invariants(g, lap, measure)
    axis = kolmogorov_measure(path_graph(p))
    assert measure.volume == pytest.approx(axis.volume**d, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(p=st_p)
def test_product_spectrum_is_minkowski_average(p):
    axis_sym = symmetrize(probabilistic_laplacian(path_graph(p)))
    axis_evals = np.linalg.eigvalsh(axis_sym.matrix)
    _, lap, _ = cartesian_power(path_graph(p), 2)
    evals = np.sort(np.linalg.eigvalsh(symmetrize(lap).matrix))
    pairs = np.sort([(a + b) / 2.0 for a in axis_evals for b in axis_evals])
    np.testing.assert_allclose(evals, pairs, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(p=st_p, gamma=st_gamma, t=st.floats(min_value=0.0, max_value=25.0))
def test_evolution_unitary_and_bounded(p, gamma, t):
    lap = probabilistic_laplacian(path_graph(p))
    h = SearchHamiltonian(gamma, 0, lap)
    result = evolve(h, t)
    norm = float(np.sum(np.abs(result.state) ** 2 * lap.measure.mu))
    assert norm == pytest.approx(1.0, abs=1e-10)
    assert -1e-12 <= result.success <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(p=st_p, gamma=st_gamma)
def test_initial_success_is_measure_ratio(p, gamma):
    _, lap, measure = cartesian_power(path_graph(p), 2)
    h = SearchHamiltonian(gamma, 0, lap)
    assert evolve(h, 0.0).success == pytest.approx(
        measure.mu[0] / measure.volume, abs=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(p=st_p, gamma=st_gamma, w=st.integers(min_value=0, max_value=3))
def test_green_matches_direct_and_ground_energy_negative(p, gamma, w):
    lap = probabilistic_laplacian(path_graph(p))
    h = SearchHamiltonian(gamma, w, lap)
    direct = overlaps_direct(h)
    via = overlaps_via_green(h)
    for name in ("e0", "e1", "s_psi0", "w_psi0", "s_psi1", "w_psi1"):
        assert getattr(direct, name) == pytest.approx(getattr(via, name), abs=1e-8)
    assert direct.e0 < 0.0


@settings(max_examples=20, deadline=None)
@given(p=st_p, gamma=st_gamma)
def test_theorem_bounds_always_hold(p, gamma):
    _, lap, _ = cartesian_power(path_graph(p), 2)
    bounds = theorem_bound_report(SearchHamiltonian(gamma, 0, lap))
    assert bounds.first_holds
    assert bounds.second_holds


@settings(max_examples=15, deadline=None)
@given(p=st_p, gamma=st_gamma)
def test_success_curve_matches_pointwise_evolution(p, gamma):
    lap = probabilistic_laplacian(path_graph(p))
    h = SearchHamiltonian(gamma, 1, lap)
    sd = decompose(h)
    times = np.linspace(0.0, 12.0, 7)
    curve = success_curve(h, times, spectral=sd)
    for t, pi in zip(times, curve):
        assert pi == pytest.approx(evolve(h, float(t), spectral=sd).success, abs=1e-12)


def assert_secular_matches_dense(lap, w, gamma):
    """The secular engine against dense eigh: low pair, amplitudes and pi(t) to 1e-10."""
    h = SearchHamiltonian(gamma, w, lap)
    sd = decompose(h)
    spec = SecularSolver(lap, w).solve(gamma)
    try:
        dense = overlaps_direct(h, spectral=sd)
    except DegenerateLowStates:
        with pytest.raises(DegenerateLowStates):
            spec.low_pair()
        return
    report = spec.low_pair()
    for name in ("e0", "e1", "s_psi0", "w_psi0", "s_psi1", "w_psi1"):
        assert abs(getattr(report, name) - getattr(dense, name)) <= 1e-10, name
    s_sym = sd.sqrt_mu / np.sqrt((sd.sqrt_mu**2).sum())
    alpha = sd.sym_vectors[w, :] * (sd.sym_vectors.T @ s_sym)
    nearest = np.abs(sd.eigenvalues[:, None] - spec.energies[None, :]).argmin(axis=0)
    assert np.unique(nearest).size == nearest.size
    assert np.abs(alpha[nearest] - spec.amplitudes).max() <= 1e-10
    assert np.abs(np.delete(alpha, nearest)).max(initial=0.0) <= 1e-10
    times = np.linspace(0.0, 60.0, 41)
    np.testing.assert_allclose(
        _curve(spec.energies, spec.amplitudes, times),
        success_curve(h, times, spectral=sd),
        rtol=0.0,
        atol=1e-10,
    )


@settings(max_examples=15, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=3), gamma=st_gamma)
def test_secular_engine_matches_dense_on_lattices(p, d, gamma):
    _, lap, _ = cartesian_power(path_graph(p), d)
    for w in range(lap.graph.n):
        assert_secular_matches_dense(lap, w, gamma)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), gamma=st_gamma)
def test_secular_engine_matches_dense_on_complete_graphs(n, gamma):
    lap = probabilistic_laplacian(complete_graph(n))
    for w in sorted({0, n - 1}):
        assert_secular_matches_dense(lap, w, gamma)


GRID_SIZES = (2, 3, 97, 500, 4000)


def assert_grid_curve_matches_direct_sum(spec, stop):
    """_grid_curve keeps np.linspace's times, and its pi to 1e-12 of the direct sum."""
    for num in GRID_SIZES:
        times, curve = _grid_curve(spec.energies, spec.amplitudes, stop, num)
        assert np.array_equal(times, np.linspace(0.0, stop, num)), num
        direct = np.abs(_exp_sum(spec.energies, spec.amplitudes, times)) ** 2
        assert np.abs(curve - direct).max() <= 1e-12, num


st_fraction = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=15, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=4), gamma=st_gamma, fraction=st_fraction)
def test_grid_curve_matches_direct_sum_on_lattices(p, d, gamma, fraction):
    # the optimizer's time grids stop at most at the graph volume
    _, lap, measure = cartesian_power(path_graph(p), d)
    spec = SecularSolver(lap, 0).solve(gamma)
    assert_grid_curve_matches_direct_sum(spec, fraction * measure.volume)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), gamma=st_gamma, fraction=st_fraction)
def test_grid_curve_matches_direct_sum_on_complete_graphs(n, gamma, fraction):
    lap = probabilistic_laplacian(complete_graph(n))
    spec = SecularSolver(lap, 0).solve(gamma)
    assert_grid_curve_matches_direct_sum(spec, fraction * lap.measure.volume)


def linked_cliques(eps):
    """Three 4-cliques whose first vertices are joined pairwise with weight eps.

    The second Laplacian eigenvalue is O(eps) and doubly degenerate, so the
    first excited energy is squeezed below it within O(eps).
    """
    weights = {}
    for c in range(3):
        for x in range(4 * c, 4 * c + 4):
            share = (1.0 - 2.0 * eps) / 3.0 if x == 4 * c else 1.0 / 3.0
            weights.update({(x, y): share for y in range(4 * c, 4 * c + 4) if y != x})
        weights.update({(4 * c, 4 * k): eps for k in range(3) if k != c})
    return TransitionGraph(12, weights, "custom")


@pytest.mark.parametrize("eps", [1e-12, 1e-14])
@pytest.mark.parametrize("w", [0, 1])
def test_secular_engine_raises_where_dense_is_degenerate(eps, w):
    lap = probabilistic_laplacian(linked_cliques(eps))
    with pytest.raises(DegenerateLowStates):
        overlaps_direct(SearchHamiltonian(1.0, w, lap))
    assert_secular_matches_dense(lap, w, 1.0)


def test_secular_engine_matches_dense_on_linked_cliques():
    lap = probabilistic_laplacian(linked_cliques(0.05))
    for w in range(12):
        for gamma in (0.3, 1.0, 1.9):
            assert_secular_matches_dense(lap, w, gamma)


SPECTRUM_FIELDS = ("energies", "w_overlaps", "s_overlaps", "amplitudes", "levels", "level_index")


def assert_batch_matches_lone_solves(solver, gammas):
    """solve_many gives, field for field and bit for bit, what solve gives alone."""
    batch = solver.solve_many(gammas)
    assert len(batch) == len(gammas)
    for gamma, spec in zip(gammas, batch):
        lone = solver.solve(gamma)
        for name in SPECTRUM_FIELDS:
            assert np.array_equal(getattr(spec, name), getattr(lone, name)), name
        assert spec.gamma == lone.gamma
        assert spec.degeneracy_threshold == lone.degeneracy_threshold


st_gammas = st.lists(st_gamma, min_size=1, max_size=12)


@settings(max_examples=20, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=3), gammas=st_gammas, data=st.data())
def test_solve_many_matches_solve_on_lattices(p, d, gammas, data):
    _, lap, _ = cartesian_power(path_graph(p), d)
    w = data.draw(st.integers(min_value=0, max_value=lap.graph.n - 1), label="w")
    assert_batch_matches_lone_solves(SecularSolver(lap, w), gammas)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), gammas=st_gammas, data=st.data())
def test_solve_many_matches_solve_on_complete_graphs(n, gammas, data):
    lap = probabilistic_laplacian(complete_graph(n))
    w = data.draw(st.integers(min_value=0, max_value=n - 1), label="w")
    assert_batch_matches_lone_solves(SecularSolver(lap, w), gammas)


def test_solve_many_matches_solve_across_batch_chunks(monkeypatch):
    # a batch larger than one chunk of array cells is solved chunk by chunk
    _, lap, _ = cartesian_power(path_graph(0.7), 2)
    solver = SecularSolver(lap, 3)
    monkeypatch.setattr(spectral, "_BATCH_ELEMENTS", 3 * solver.weights.size**2)
    assert_batch_matches_lone_solves(solver, list(np.linspace(0.1, 2.5, 10)))


def first_error(calls):
    """Type and message of the first exception the calls raise in order, or None."""
    try:
        for call in calls:
            call()
    except NumericalFailure as exc:
        return type(exc), str(exc)
    return None


# valid couplings at which a secular solve fails: the subnormal one loses the
# weight identity, the huge ones stall (invalid ones never reach the solve)
st_bad_gamma = st.sampled_from([5e-324, 1e200, 1e300])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=20, deadline=None)
@given(
    p=st_p,
    d=st.integers(min_value=1, max_value=3),
    gammas=st_gammas,
    bad=st.lists(st.tuples(st.integers(min_value=0, max_value=12), st_bad_gamma), min_size=1, max_size=3),
)
def test_solve_many_names_first_failing_coupling(p, d, gammas, bad):
    _, lap, _ = cartesian_power(path_graph(p), d)
    solver = SecularSolver(lap, 0)
    for i, gamma in bad:
        gammas.insert(min(i, len(gammas)), gamma)
    lone = first_error([lambda g=g: solver.solve(g) for g in gammas])
    assert lone is not None and lone[0] is ConvergenceFailure
    assert first_error([lambda: solver.solve_many(gammas)]) == lone


@settings(max_examples=10, deadline=None)
@given(eps=st.sampled_from([1e-12, 1e-14]), w=st.sampled_from([0, 1]), gammas=st_gammas)
def test_batched_low_pairs_name_first_degenerate_coupling(eps, w, gammas):
    solver = SecularSolver(probabilistic_laplacian(linked_cliques(eps)), w)
    lone = first_error([lambda g=g: solver.low_pair(g) for g in gammas])
    assert lone is not None and lone[0] is DegenerateLowStates
    batch = solver.solve_many(gammas)
    assert first_error([spec.low_pair for spec in batch]) == lone
