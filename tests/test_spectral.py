import numpy as np
import pytest

from qwsearch.errors import (
    ConvergenceFailure,
    DegenerateLowStates,
    EigenvalueOnSpectrum,
    NonSymmetrizable,
    PoleProximity,
)
from qwsearch.graphs import (
    Laplacian,
    TransitionGraph,
    VertexMeasure,
    cartesian_power,
    complete_graph,
    kolmogorov_measure,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.spectral import (
    DEGENERACY_TOL,
    SecularSolver,
    SpectralData,
    decompose,
    eigendecompose,
    green,
    overlaps_via_green,
    symmetrize,
    theorem_bound_report,
)

from dense_oracles import (
    SearchHamiltonian,
    decompose_hamiltonian,
    ground_state,
    overlaps_direct,
    symmetrize_hamiltonian,
    weighted_inner,
)


def test_symmetrize_path_tridiagonal():
    lap = probabilistic_laplacian(path_graph(0.5))
    sym = symmetrize(lap)
    # oracle: conjugate the raw matrix by diag(sqrt(mu)) explicitly
    d = np.diag(np.sqrt([1.0, 2.0, 2.0, 1.0]))
    expected = d @ lap.matrix @ np.linalg.inv(d)
    np.testing.assert_allclose(sym.matrix, 0.5 * (expected + expected.T), atol=1e-14)
    np.testing.assert_allclose(
        np.diag(sym.matrix, 1), [-1 / np.sqrt(2), -0.5, -1 / np.sqrt(2)], atol=1e-14
    )
    np.testing.assert_allclose(sym.matrix, sym.matrix.T, atol=0)


def test_symmetrize_complete_is_identity_transform():
    lap = probabilistic_laplacian(complete_graph(5))
    sym = symmetrize(lap)
    np.testing.assert_allclose(sym.matrix, lap.matrix, atol=1e-15)
    v = np.linspace(1.0, 5.0, 5)
    np.testing.assert_allclose(sym.to_vertex(v), v, atol=0)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
def test_symmetrize_preserves_spectrum(p):
    lap = probabilistic_laplacian(path_graph(p))
    sym = symmetrize(lap)
    raw = np.sort(np.linalg.eigvals(lap.matrix).real)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(sym.matrix)), raw, atol=1e-9)


def test_symmetrize_back_map_preserves_inner_products():
    lap = probabilistic_laplacian(path_graph(0.3))
    sym = symmetrize(lap)
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    fa, fb = sym.to_vertex(a), sym.to_vertex(b)
    assert weighted_inner(fa, fb, lap.measure.mu) == pytest.approx(a @ b, rel=1e-12)


def test_symmetrize_rejects_wrong_measure():
    g = path_graph(0.5)
    bad_measure = VertexMeasure(np.array([1.0, 5.0, 2.0, 1.0]), 9.0)
    bad_lap = Laplacian(g, bad_measure)
    with pytest.raises(NonSymmetrizable):
        symmetrize(bad_lap)


def test_eigendecompose_path_spectrum():
    sd = decompose(probabilistic_laplacian(path_graph(0.5)))
    np.testing.assert_allclose(sd.eigenvalues, [0.0, 0.5, 1.5, 2.0], atol=1e-12)


@pytest.mark.parametrize("n", [3, 8, 17])
def test_eigendecompose_complete_spectrum(n):
    sd = decompose(probabilistic_laplacian(complete_graph(n)))
    expected = np.array([0.0] + [n / (n - 1)] * (n - 1))
    np.testing.assert_allclose(sd.eigenvalues, expected, atol=1e-12)


def test_laplacian_kernel_is_constant_vector():
    for p in (0.15, 0.6):
        sd = decompose(probabilistic_laplacian(path_graph(p)))
        assert abs(sd.eigenvalues[0]) < 1e-12
        psi0 = sd.eigenvectors[:, 0]
        np.testing.assert_allclose(psi0, psi0[0], rtol=1e-10)


def test_eigendecompose_contracts():
    _, lap, _ = cartesian_power(path_graph(0.7), 2)
    sd = decompose(lap).validate()
    gram = sd.sym_vectors.T @ sd.sym_vectors
    assert np.abs(gram - np.eye(sd.n)).max() < 1e-10
    assert sd.residual_norm < 1e-10 * sd.spectral_range
    # spectrum of a probabilistic Laplacian stays inside [0, 2]
    assert sd.eigenvalues[0] > -1e-10
    assert sd.eigenvalues[-1] < 2.0 + 1e-10


def test_phase_convention_largest_component_positive():
    _, lap, _ = cartesian_power(path_graph(0.3), 2)
    sd = decompose_hamiltonian(SearchHamiltonian(0.8, 0, lap))
    for a in range(sd.n):
        column = sd.eigenvectors[:, a]
        assert column[np.abs(column).argmax()] > 0


def test_ground_state_complete():
    lap = probabilistic_laplacian(complete_graph(9))
    s = ground_state(lap)
    np.testing.assert_allclose(s, 1.0 / 3.0, atol=1e-15)


def test_ground_state_path():
    lap = probabilistic_laplacian(path_graph(0.5))
    s = ground_state(lap)
    np.testing.assert_allclose(s, 1.0 / np.sqrt(6.0), atol=1e-15)
    assert weighted_inner(s, s, lap.measure.mu) == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(lap.matrix @ s, 0.0, atol=1e-14)


@pytest.mark.parametrize("p,w", [(0.3, 0), (0.7, 2)])
def test_ground_state_target_overlap(p, w):
    lap = probabilistic_laplacian(path_graph(p))
    s = ground_state(lap)
    e_w = np.zeros(4)
    e_w[w] = 1.0 / np.sqrt(lap.measure.mu[w])
    overlap_sq = abs(weighted_inner(s, e_w, lap.measure.mu)) ** 2
    assert overlap_sq == pytest.approx(
        lap.measure.mu[w] / lap.measure.volume, rel=1e-12
    )


def test_green_complete_graph_closed_form():
    # two-term sum (1/N)/(-z) + ((N-1)/N)/(gamma*N/(N-1) - z) at N=4, gamma=3/4
    ev = green(SecularSolver(probabilistic_laplacian(complete_graph(4)), 0), 0.75, -0.5)
    assert ev.value == pytest.approx(1.0, abs=1e-12)
    assert ev.derivative == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_green_vanishes_far_below_spectrum():
    solver = SecularSolver(probabilistic_laplacian(path_graph(0.4)), 0)
    assert abs(green(solver, 1.0, -1e9).value) < 1e-8


def three_path():
    """Laplacian of the 3-vertex path, whose eigenvalue 1 has the eigenvector (1, 0, -1): invisible from 1."""
    return probabilistic_laplacian(TransitionGraph.from_weights(3, {(0, 1): 1.0, (1, 0): 0.5, (1, 2): 0.5, (2, 1): 1.0}, "custom"))


def test_green_pole_rejected():
    with pytest.raises(PoleProximity):
        green(SecularSolver(probabilistic_laplacian(complete_graph(4)), 0), 0.75, 0.0)
    # a pole that carries no weight at the target is a pole all the same
    with pytest.raises(PoleProximity):
        green(SecularSolver(three_path(), 1), 0.3, 0.3)


@pytest.mark.parametrize(
    "gamma, z, name",
    [
        # a negative coupling once put z = -0.5 on a pole, G = 2.0e15, with PoleProximity silent
        (-1.0, -0.5, "gamma"),
        (0.0, -0.5, "gamma"),
        (float("nan"), -0.5, "gamma"),
        (float("inf"), -0.5, "gamma"),
        (0.75, float("nan"), "z"),
        (0.75, float("inf"), "z"),
        (0.75, -float("inf"), "z"),
    ],
)
def test_green_rejects_a_bad_coupling_or_energy(gamma, z, name):
    solver = SecularSolver(cartesian_power(path_graph(0.5), 2)[1], 0)
    with pytest.raises(ValueError, match=f"^{name}="):
        green(solver, gamma, z)


def test_green_derivative_positive_below_spectrum():
    solver = SecularSolver(probabilistic_laplacian(path_graph(0.25)), 0)
    for z in (-3.0, -0.5, -1e-3):
        assert green(solver, 1.2, z).derivative > 0.0


@pytest.mark.parametrize(
    "graph,gamma",
    [
        (complete_graph(4), 0.75),
        (complete_graph(11), 0.6),
        (path_graph(0.35), 1.1),
    ],
)
def test_green_equals_one_at_hamiltonian_eigenvalues(graph, gamma):
    lap = probabilistic_laplacian(graph)
    solver = SecularSolver(lap, 0)
    hsd = decompose_hamiltonian(SearchHamiltonian(gamma, 0, lap))
    for a in (0, 1):
        value = green(solver, gamma, float(hsd.eigenvalues[a])).value
        assert value == pytest.approx(1.0, abs=1e-8)


def test_resolvent_identity_at_eigenvalues():
    # <e_w, (gamma*Delta - E_a)^{-1} psi_a> <psi_a, e_w> = 1
    _, lap, _ = cartesian_power(path_graph(0.45), 2)
    gamma, w = 0.9, 0
    sym = symmetrize(lap)
    hsd = decompose_hamiltonian(SearchHamiltonian(gamma, w, lap))
    for a in (0, 1):
        e_a = hsd.eigenvalues[a]
        v_a = hsd.sym_vectors[:, a]
        x = np.linalg.solve(gamma * sym.matrix - e_a * np.eye(lap.graph.n), v_a)
        assert x[w] * v_a[w] == pytest.approx(1.0, abs=1e-8)
        assert abs(v_a[w]) > 1e-12


@pytest.mark.parametrize("n", [4, 16])
def test_complete_graph_overlap_closed_forms(n):
    lap = probabilistic_laplacian(complete_graph(n))
    rep = overlaps_direct(SearchHamiltonian((n - 1) / n, 0, lap))
    root = np.sqrt(n)
    assert rep.e0 == pytest.approx(-1.0 / root, abs=1e-12)
    assert rep.e1 == pytest.approx(1.0 / root, abs=1e-12)
    assert rep.s_psi0 == pytest.approx((root + 1) / (2 * root), abs=1e-12)
    assert rep.w_psi0 == pytest.approx((root + 1) / (2 * root), abs=1e-12)
    assert rep.s_psi1 == pytest.approx((root - 1) / (2 * root), abs=1e-12)
    assert rep.w_psi1 == pytest.approx((root - 1) / (2 * root), abs=1e-12)


def test_overlap_via_green_closed_form_derivative():
    rep = overlaps_via_green(SecularSolver(probabilistic_laplacian(complete_graph(4)), 0), 0.75)
    assert rep.w_psi0 == pytest.approx(0.75, abs=1e-10)  # 1 / G'(-1/2) = 3/4


@pytest.mark.parametrize(
    "builder,gamma,w",
    [
        (lambda: probabilistic_laplacian(path_graph(0.22)), 0.4, 1),
        (lambda: probabilistic_laplacian(path_graph(0.8)), 1.7, 3),
        (lambda: cartesian_power(path_graph(0.55), 3)[1], 1.05, 0),
        (lambda: probabilistic_laplacian(complete_graph(23)), 0.96, 5),
    ],
)
def test_green_and_direct_overlaps_agree(builder, gamma, w):
    lap = builder()
    a = overlaps_direct(SearchHamiltonian(gamma, w, lap))
    b = overlaps_via_green(SecularSolver(lap, w), gamma)
    for name in ("e0", "e1", "s_psi0", "w_psi0", "s_psi1", "w_psi1"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-8)


def test_degenerate_low_states_rejected():
    lap = probabilistic_laplacian(complete_graph(4))
    h = SearchHamiltonian(0.75, 0, lap)
    sd = decompose_hamiltonian(h)
    doctored = SpectralData(
        eigenvalues=np.array([0.5, 0.5, 0.5, 0.5]),
        eigenvectors=sd.eigenvectors,
        sym_vectors=sd.sym_vectors,
        sqrt_mu=sd.sqrt_mu,
        sym_matrix=sd.sym_matrix,
    )
    with pytest.raises(DegenerateLowStates):
        overlaps_direct(h, spectral=doctored)


def test_eigenvalue_on_spectrum_rejected():
    # E_1 is gamma times the eigenvalue 1 of Delta, whose eigenvector vanishes at 1
    lap = three_path()
    assert overlaps_direct(SearchHamiltonian(0.3, 1, lap)).e1 == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(EigenvalueOnSpectrum, match="level 1"):
        overlaps_via_green(SecularSolver(lap, 1), 0.3)


def test_ground_energy_negative():
    for lap in (
        probabilistic_laplacian(path_graph(0.5)),
        probabilistic_laplacian(complete_graph(6)),
        cartesian_power(path_graph(0.2), 2)[1],
    ):
        for gamma in (0.3, 1.0, 2.5):
            rep = overlaps_direct(SearchHamiltonian(gamma, 0, lap))
            assert rep.e0 < 0.0


def test_theorem_bounds_complete_graph_exact():
    n = 16
    bounds = theorem_bound_report(SecularSolver(probabilistic_laplacian(complete_graph(n)), 0), (n - 1) / n)
    assert bounds.eps0 < 1e-12
    assert bounds.lhs0 < 1e-12
    assert bounds.lhs1 < 1e-12
    assert bounds.first_holds and bounds.second_holds


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.8])
def test_theorem_bounds_hold_off_symmetry(gamma):
    bounds = theorem_bound_report(SecularSolver(cartesian_power(path_graph(0.6), 2)[1], 0), gamma)
    assert bounds.first_holds and bounds.second_holds


def test_lattice_overlaps_near_balanced_point():
    # d=5 lattice at p=0.91 near its symmetric coupling: all four overlap
    # probabilities sit close to one half
    _, lap, _ = cartesian_power(path_graph(0.91), 5)
    rep = overlaps_direct(SearchHamiltonian(1.0197, 0, lap))
    values = [rep.s_psi0, rep.w_psi0, rep.s_psi1, rep.w_psi1]
    for v in values:
        assert v == pytest.approx(0.5, abs=0.05)
    assert max(values) - min(values) < 0.05


@pytest.mark.parametrize("w", [0, 5, 15])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
def test_secular_degeneracy_threshold_is_the_hamiltonian_norm(gamma, w):
    # the low-pair check keeps the dense threshold: 1e-10 times the largest
    # absolute row sum of the symmetrized Hamiltonian
    _, lap, _ = cartesian_power(path_graph(0.3), 2)
    sym = symmetrize_hamiltonian(SearchHamiltonian(gamma, w, lap)).matrix
    spec = SecularSolver(lap, w).solve(gamma)
    assert spec.degeneracy_threshold == pytest.approx(
        DEGENERACY_TOL * np.abs(sym).sum(axis=1).max(), rel=1e-12
    )


def test_secular_solve_rejects_missing_weight():
    # weights that no longer sum to one stand for a lost eigenspace: the
    # completeness identity sum 1/G'(E_a) = 1 must catch it
    solver = SecularSolver(probabilistic_laplacian(path_graph(0.5)), 0)
    solver.solve(1.0)
    solver.weights = solver.weights * (1.0 - 1e-6)
    with pytest.raises(ConvergenceFailure, match="misses weight"):
        solver.solve(1.0)
    # a batch fails the same check and names its first coupling
    with pytest.raises(ConvergenceFailure, match=r"at gamma=0\.5 misses weight"):
        solver.solve_many([0.5, 1.0, 1.5])


@pytest.mark.parametrize("d", [2, 3])
def test_tiny_couplings_fail_typed_or_keep_the_s_overlaps(d):
    # from about 1e-160 G' overflows at some visible roots, so 1/G' reads 0 and
    # the excited s-overlaps vanish while both completeness identities hold
    solver = SecularSolver(cartesian_power(path_graph(0.5), d)[1], 0)
    for gamma in np.logspace(-170, -140, 241):
        try:
            spec = solver.solve(gamma)
        except ConvergenceFailure:
            continue
        assert abs(spec.s_overlaps.sum() - 1.0) <= 1e-10, gamma


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_secular_solve_rejects_a_coupling_that_is_not_positive_and_finite(bad):
    solver = SecularSolver(probabilistic_laplacian(path_graph(0.5)), 0)
    with pytest.raises(ValueError, match=rf"gamma={bad} must be positive and finite"):
        solver.solve(bad)
    # a batch names its first offender, before solving any coupling
    with pytest.raises(ValueError, match=rf"gamma={bad} must"):
        solver.solve_many([1.0, bad, -2.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_secular_solve_at_a_huge_coupling_fails_typed():
    solver = SecularSolver(probabilistic_laplacian(path_graph(0.5)), 0)
    with pytest.raises(ConvergenceFailure):
        solver.solve(1e300)
