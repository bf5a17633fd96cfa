import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsearch import spectral
from qwsearch.errors import (
    ConvergenceFailure,
    DegenerateLowStates,
    NonSymmetrizable,
    NumericalFailure,
)
from qwsearch.graphs import (
    Laplacian,
    TransitionGraph,
    cartesian_power,
    complete_graph,
    kolmogorov_measure,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import (
    _exp_sum,
    _grid_curve,
    decompose_at_gamma_E,
    find_gamma_critical,
    success_curve,
)
from qwsearch.spectral import (
    SecularSolver,
    TheoremBounds,
    overlaps_via_green,
    symmetrize,
    theorem_bound_report,
)

from dense_oracles import (
    SearchHamiltonian,
    decompose_hamiltonian,
    evolve,
    overlaps_direct,
    success_curve as dense_success_curve,
    symmetrize_hamiltonian,
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
    via = overlaps_via_green(SecularSolver(lap, w), gamma)
    for name in ("e0", "e1", "s_psi0", "w_psi0", "s_psi1", "w_psi1"):
        assert getattr(direct, name) == pytest.approx(getattr(via, name), abs=1e-8)
    assert direct.e0 < 0.0


@settings(max_examples=20, deadline=None)
@given(p=st_p, gamma=st_gamma)
def test_theorem_bounds_always_hold(p, gamma):
    bounds = theorem_bound_report(SecularSolver(cartesian_power(path_graph(p), 2)[1], 0), gamma)
    assert bounds.first_holds
    assert bounds.second_holds


@settings(max_examples=15, deadline=None)
@given(p=st_p, gamma=st_gamma)
def test_success_curve_matches_pointwise_evolution(p, gamma):
    lap = probabilistic_laplacian(path_graph(p))
    h = SearchHamiltonian(gamma, 1, lap)
    sd = decompose_hamiltonian(h)
    times = np.linspace(0.0, 12.0, 7)
    curve = dense_success_curve(h, times, spectral=sd)
    for t, pi in zip(times, curve):
        assert pi == pytest.approx(evolve(h, float(t), spectral=sd).success, abs=1e-12)


def assert_secular_matches_dense(lap, w, gamma):
    """The secular engine against dense eigh: low pair, amplitudes and pi(t) to 1e-10."""
    h = SearchHamiltonian(gamma, w, lap)
    sd = decompose_hamiltonian(h)
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
        success_curve(spec, times),
        dense_success_curve(h, times, spectral=sd),
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
    return TransitionGraph.from_weights(12, weights, "custom")


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


@pytest.mark.parametrize(
    "graph, w",
    [
        (lambda: cartesian_power(path_graph(0.91), 4)[1], 0),
        (lambda: cartesian_power(path_graph(0.3), 3)[1], 21),
        (lambda: probabilistic_laplacian(complete_graph(12)), 5),
    ],
)
def test_dropping_settled_cells_keeps_every_bit(monkeypatch, graph, w):
    # the iteration that never drops a cell is the reference for one that drops at every halving
    solver = SecularSolver(graph(), w)
    gammas = np.linspace(0.05, 3.0, 40)
    monkeypatch.setattr(spectral, "_COMPACT_ELEMENTS", np.inf)
    kept = solver.solve_many(gammas)
    monkeypatch.setattr(spectral, "_COMPACT_ELEMENTS", 0)
    dropped = solver.solve_many(gammas)
    for a, b in zip(kept, dropped):
        for name in SPECTRUM_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
    lone = first_error([lambda g=g: solver.solve(g).low_pair() for g in gammas])
    assert lone is not None and lone[0] is DegenerateLowStates
    batch = solver.solve_many(gammas)
    assert first_error([spec.low_pair for spec in batch]) == lone


def dense_setup_laplacian(lap):
    """The same Laplacian with its product structure hidden, so SecularSolver decomposes it densely."""
    return Laplacian(dataclasses.replace(lap.graph, axis=None), lap.measure)


@settings(max_examples=20, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=4), gamma=st_gamma, data=st.data())
def test_product_setup_matches_dense_setup(p, d, gamma, data):
    _, lap, _ = cartesian_power(path_graph(p), d)
    w = data.draw(st.integers(min_value=1, max_value=lap.graph.n - 1), label="target")
    product = SecularSolver(lap, w)
    dense = SecularSolver(dense_setup_laplacian(lap), w)
    assert product.lams.size == dense.lams.size
    assert product._invisible.size == dense._invisible.size
    assert np.abs(gamma * product.lams - gamma * dense.lams).max() <= 1e-14
    # the dense eigenvectors, and so the dense weights, are accurate only to
    # about eps / gap (Davis-Kahan); the gaps of Delta shrink like p / d as p -> 0
    gaps = np.diff(dense.laplacian_spectrum)
    gap = gaps[gaps > 1e-10].min(initial=1.0)
    assert np.abs(product.weights - dense.weights).max() <= 1e-14 + 4.0 * np.finfo(float).eps / gap
    assert np.abs(gamma * product._invisible - gamma * dense._invisible).max(initial=0.0) <= 1e-14
    assert np.abs(product.laplacian_spectrum - dense.laplacian_spectrum).max() <= 1e-14
    assert product._threshold(gamma) == pytest.approx(dense._threshold(gamma), rel=1e-14)


def assert_hamiltonian_spectra_match_eigvalsh(lap, w, gammas):
    """Every eigenvalue from the secular solver within 1e-13 max(1, ||H||) of dense eigvalsh."""
    for gamma, energies in zip(gammas, SecularSolver(lap, w).hamiltonian_spectra(gammas)):
        dense = np.linalg.eigvalsh(symmetrize_hamiltonian(SearchHamiltonian(gamma, w, lap)).matrix)
        assert energies.shape == dense.shape
        assert np.abs(energies - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max()), gamma


st_wide_gammas = st.lists(
    st.floats(min_value=-6.0, max_value=9.0).map(lambda e: 10.0**e), min_size=1, max_size=6
)


@settings(max_examples=20, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=4), gammas=st_wide_gammas, data=st.data())
def test_hamiltonian_spectra_match_eigvalsh_on_lattices(p, d, gammas, data):
    _, lap, _ = cartesian_power(path_graph(p), d)
    w = data.draw(st.integers(min_value=0, max_value=lap.graph.n - 1), label="target")
    assert_hamiltonian_spectra_match_eigvalsh(lap, w, gammas)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), gammas=st_wide_gammas)
def test_hamiltonian_spectra_match_eigvalsh_on_complete_graphs(n, gammas):
    assert_hamiltonian_spectra_match_eigvalsh(probabilistic_laplacian(complete_graph(n)), n - 1, gammas)


def test_hamiltonian_spectra_match_eigvalsh_on_linked_cliques():
    lap = probabilistic_laplacian(linked_cliques(0.05))
    gammas = np.geomspace(1e-6, 1e9, 16)
    for w in (0, 1, 5):
        assert_hamiltonian_spectra_match_eigvalsh(lap, w, gammas)


def test_hamiltonian_spectra_match_eigvalsh_on_a_lazy_graph():
    # a graph that is not a product is its own 1-fold power, self-loop and all
    lazy = TransitionGraph.from_weights(3, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 2): 0.5, (2, 1): 1.0}, "custom")
    lap = probabilistic_laplacian(lazy)
    for w in range(lazy.n):
        assert_hamiltonian_spectra_match_eigvalsh(lap, w, np.geomspace(1e-6, 1e9, 16))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_setup_rejects_a_laplacian_off_its_stencil(d):
    # product graphs, axis and all, whose edges are not the power's
    g, lap, _ = cartesian_power(path_graph(0.4), d)
    sources, targets, p = g.edges
    off_stencil = dataclasses.replace(g, edges=(sources, targets, np.append(p[0] * (1.0 + 1e-12), p[1:])))
    with pytest.raises(NonSymmetrizable):
        SecularSolver(Laplacian(off_stencil, lap.measure), 0)
    # an edge outside the stencil
    stray = dataclasses.replace(g, edges=(np.append(sources, 0), np.append(targets, g.n - 1), np.append(p, 1e-300)))
    with pytest.raises(NonSymmetrizable):
        SecularSolver(Laplacian(stray, lap.measure), 0)


@pytest.mark.parametrize("d", [2, 3])
def test_product_setup_takes_the_power_edges_in_any_order(d):
    # the check compares edges, not their storage order
    g, lap, _ = cartesian_power(path_graph(0.4), d)
    reordered = dataclasses.replace(g, edges=tuple(column[::-1] for column in g.edges))
    solver = SecularSolver(Laplacian(reordered, lap.measure), 0)
    assert solver.lams.tobytes() == SecularSolver(lap, 0).lams.tobytes()


def dense_decomposition(lap, w, gamma, times):
    """decompose_at_gamma_E's fields from dense eigh at a coupling it has already refined.

    The function's former body, kept as the oracle of the secular route.
    """
    sd = decompose_hamiltonian(SearchHamiltonian(gamma, w, lap))
    coeff = sd.sym_vectors.T @ (sd.sqrt_mu / np.sqrt((sd.sqrt_mu**2).sum()))
    wv = sd.sym_vectors[w, :]
    alpha = wv * coeff
    s0_sq, s1_sq = coeff[0] ** 2, coeff[1] ** 2
    w0_sq, w1_sq = wv[0] ** 2, wv[1] ** 2
    ratio0, ratio1 = w0_sq / s0_sq, w1_sq / s1_sq
    theta = 0.5 * np.angle(complex(-(coeff[1] * wv[0]) / (coeff[0] * wv[1])))
    if theta < 0.0:
        theta += np.pi
    e0, e1 = float(sd.eigenvalues[0]), float(sd.eigenvalues[1])
    two_level = alpha[0] * np.exp(-1j * e0 * times) + alpha[1] * np.exp(-1j * e1 * times)
    higher = _exp_sum(sd.eigenvalues[2:], alpha[2:], times)
    residual = 2.0 * (two_level * np.conj(higher)).real + np.abs(higher) ** 2
    success = np.abs(two_level + higher) ** 2
    amplitude = 4.0 * s0_sq * w1_sq
    constant = w0_sq * s0_sq + w1_sq * s1_sq - 2.0 * s0_sq * w1_sq
    reconstruction = amplitude * np.sin(e1 * times + theta) ** 2 + constant + residual
    return {
        "theta": float(theta),
        "constant": float(constant),
        "amplitude": float(amplitude),
        "e0": e0,
        "e1": e1,
        "two_level": two_level,
        "higher_order": higher,
        "residual": residual,
        "success": success,
        "reconstruction": reconstruction,
        "ratio_residual": float(abs(ratio1 - ratio0) / max(ratio0, ratio1)),
        "max_reconstruction_error": float(np.abs(reconstruction - success).max()),
    }


def assert_decomposition_matches_dense(solver, lap, gamma_e):
    """Every field of the secular decomposition at the limits: E 1e-12, the rest 1e-10, theta equal."""
    times = np.linspace(0.0, 200.0, 300)
    report = decompose_at_gamma_E(solver, gamma_e, times)
    dense = dense_decomposition(lap, 0, report.gamma, times)
    assert report.theta == dense["theta"]
    for name, expected in dense.items():
        limit = 1e-12 if name in ("e0", "e1") else 1e-10
        assert np.abs(getattr(report, name) - expected).max() <= limit, name


@settings(max_examples=15, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=3))
def test_decomposition_matches_dense_on_lattices(p, d):
    _, lap, _ = cartesian_power(path_graph(p), d)
    solver = SecularSolver(lap, 0)
    # gamma_E grows as p falls: about 25 at p=0.02 on the path
    gamma_e = find_gamma_critical(solver, "E", (0.05, 60.0), grid_points=1200)
    assert_decomposition_matches_dense(solver, lap, gamma_e)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_decomposition_matches_dense_on_complete_graphs(n):
    lap = probabilistic_laplacian(complete_graph(n))
    assert_decomposition_matches_dense(SecularSolver(lap, 0), lap, (n - 1) / n)


def assert_slopes_match_dense(lap, w, gamma):
    """The slopes (E_a + |<e_w, psi_a>|^2) / gamma of the secular low pair against dense <psi_a|S|psi_a>.

    By Hellmann-Feynman dE_a/dgamma = <psi_a|Delta|psi_a>, and for the
    eigenvector psi_a of gamma S - e_w e_w^T that is (E_a + w_a) / gamma.  The
    values lie in [0, 2], the spectrum of S.  Where one is far below 1,
    E_a + w_a cancels to it, so the limit is 1e-12 relative to max(1, value).
    """
    pair = SecularSolver(lap, w).solve(gamma).low_pair()
    slopes = np.array([pair.e0 + pair.w_psi0, pair.e1 + pair.w_psi1]) / gamma
    psi = decompose_hamiltonian(SearchHamiltonian(gamma, w, lap)).sym_vectors[:, :2]
    dense = np.einsum("ia,ij,ja->a", psi, symmetrize(lap).matrix, psi)
    assert (np.abs(slopes - dense) <= 1e-12 * np.maximum(1.0, dense)).all(), (slopes, dense)


@settings(max_examples=20, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=3), gamma=st_gamma, data=st.data())
def test_energy_slopes_match_dense_on_lattices(p, d, gamma, data):
    _, lap, _ = cartesian_power(path_graph(p), d)
    w = data.draw(st.integers(min_value=0, max_value=lap.graph.n - 1), label="w")
    assert_slopes_match_dense(lap, w, gamma)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), gamma=st_gamma)
def test_energy_slopes_match_dense_on_complete_graphs(n, gamma):
    lap = probabilistic_laplacian(complete_graph(n))
    for w in sorted({0, n - 1}):
        assert_slopes_match_dense(lap, w, gamma)


def dense_theorem_bounds(h):
    """theorem_bound_report from dense eigh: the function's former body, kept as its oracle."""
    rep = overlaps_direct(h)
    ratio = h.laplacian.measure.mu[h.target] / h.laplacian.measure.volume
    eps0, eps1 = abs(rep.s_psi0 - rep.w_psi0), abs(rep.s_psi1 - rep.w_psi1)
    lhs0, lhs1 = abs(rep.e0**2 - ratio), abs(rep.e1**2 - ratio)
    prefactor = 1.0 + ratio * abs(rep.s_psi1 - rep.s_psi0) / (rep.s_psi1 * rep.s_psi0)
    rhs1 = prefactor * eps1
    return TheoremBounds(
        eps0=eps0,
        eps1=eps1,
        lhs0=lhs0,
        lhs1=lhs1,
        rhs0=eps0,
        rhs1=rhs1,
        first_holds=lhs0 <= eps0 + 1e-12,
        second_holds=lhs1 <= rhs1 + 1e-12,
    )


def assert_theorem_bounds_match_dense(lap, w, gamma):
    """Every bound field within 1e-10 (the energy ones within 1e-12), and the same verdicts."""
    h = SearchHamiltonian(gamma, w, lap)
    bounds, dense = theorem_bound_report(SecularSolver(lap, w), gamma), dense_theorem_bounds(h)
    for name in ("eps0", "eps1", "lhs0", "lhs1", "rhs0", "rhs1"):
        limit = 1e-12 if name.startswith("lhs") else 1e-10
        assert abs(getattr(bounds, name) - getattr(dense, name)) <= limit, name
    assert (bounds.first_holds, bounds.second_holds) == (dense.first_holds, dense.second_holds)


@settings(max_examples=20, deadline=None)
@given(p=st_p, d=st.integers(min_value=1, max_value=3), gamma=st_gamma)
def test_theorem_bounds_match_dense_on_lattices(p, d, gamma):
    _, lap, _ = cartesian_power(path_graph(p), d)
    assert_theorem_bounds_match_dense(lap, 0, gamma)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), gamma=st_gamma)
def test_theorem_bounds_match_dense_on_complete_graphs(n, gamma):
    lap = probabilistic_laplacian(complete_graph(n))
    assert_theorem_bounds_match_dense(lap, 0, gamma)
    assert_theorem_bounds_match_dense(lap, 0, (n - 1) / n)
