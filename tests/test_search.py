import numpy as np
import pytest
from scipy.linalg import expm

from qwsearch.errors import NoRootInRange, NotAtGammaE
from qwsearch.graphs import (
    cartesian_power,
    complete_graph,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import (
    decompose_at_gamma_E,
    evolve,
    find_gamma_critical,
    gamma_critical_points,
    optimize_search,
    success_curve,
)
from qwsearch.spectral import (
    _CROSSINGS,
    SearchHamiltonian,
    decompose,
    overlaps_direct,
    symmetrize,
)


def complete_success_curve(n, times):
    """Closed-form success probability for the complete graph at its symmetric coupling."""
    return (n - 1) / n * np.sin(times / np.sqrt(n)) ** 2 + 1.0 / n


def test_evolve_at_zero_is_initial_state():
    lap = probabilistic_laplacian(path_graph(0.5))
    h = SearchHamiltonian(1.3, 0, lap)
    result = evolve(h, 0.0)
    np.testing.assert_allclose(result.state, 1.0 / np.sqrt(6.0), atol=1e-12)
    assert result.success == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_evolve_rejects_negative_time():
    lap = probabilistic_laplacian(path_graph(0.5))
    with pytest.raises(ValueError):
        evolve(SearchHamiltonian(1.0, 0, lap), -0.1)


def test_complete_graph_full_success_at_quarter_period():
    lap = probabilistic_laplacian(complete_graph(4))
    h = SearchHamiltonian(0.75, 0, lap)
    assert evolve(h, np.pi).success == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [4, 16])
def test_complete_graph_success_curve(n):
    lap = probabilistic_laplacian(complete_graph(n))
    h = SearchHamiltonian((n - 1) / n, 0, lap)
    times = np.linspace(0.0, np.pi * np.sqrt(n), 300)
    np.testing.assert_allclose(
        success_curve(h, times), complete_success_curve(n, times), atol=1e-8
    )


def test_unitarity_and_probability_range():
    _, lap, _ = cartesian_power(path_graph(0.35), 2)
    h = SearchHamiltonian(0.9, 0, lap)
    sd = decompose(h)
    for t in np.linspace(0.0, 50.0, 23):
        result = evolve(h, float(t), spectral=sd)
        norm = float(np.sum(np.abs(result.state) ** 2 * lap.measure.mu))
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert -1e-12 <= result.success <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "lap_builder,gamma",
    [
        (lambda: probabilistic_laplacian(path_graph(0.25)), 0.7),
        (lambda: cartesian_power(path_graph(0.6), 2)[1], 1.2),
        (lambda: probabilistic_laplacian(complete_graph(16)), 0.94),
    ],
)
def test_evolution_matches_matrix_exponential(lap_builder, gamma):
    lap = lap_builder()
    h = SearchHamiltonian(gamma, 0, lap)
    sym = symmetrize(h)
    s_sym = sym.sqrt_mu / np.sqrt((sym.sqrt_mu**2).sum())
    sd = decompose(h)
    for t in (0.1, 1.0, 10.0):
        expected = expm(-1j * sym.matrix * t) @ s_sym
        got = evolve(h, t, spectral=sd).state * sym.sqrt_mu
        assert np.linalg.norm(got - expected) < 1e-9


@pytest.mark.parametrize("n", [3, 8, 30])
def test_gamma_E_complete_graph(n):
    root = find_gamma_critical(complete_graph(n), 0, "E")
    assert root == pytest.approx((n - 1) / n, abs=1e-9)


def test_gamma_roots_satisfy_their_equations():
    g = path_graph(0.5)
    lap = probabilistic_laplacian(g)
    # the target-overlap crossing of the single axis sits just above 3
    for which in ("s", "w", "E"):
        root = find_gamma_critical(g, 0, which, (0.05, 5.0), lap=lap)
        dense = overlaps_direct(SearchHamiltonian(root, 0, lap))
        assert abs(_CROSSINGS[which](dense)) < 1e-9


def test_gamma_ordering_single_axis():
    crit = gamma_critical_points(path_graph(0.5), 0, (0.05, 5.0))
    assert crit.gamma_s is not None
    assert crit.gamma_w is not None
    assert crit.gamma_E is not None
    assert crit.gamma_s <= crit.gamma_E + 1e-6
    assert crit.gamma_E <= crit.gamma_w + 1e-6


def test_two_vertex_graph_has_no_overlap_crossings():
    # for two vertices the s-crossing degenerates to gamma -> 0 and the
    # w-crossing never happens, so neither root lies in the scanned range
    g = complete_graph(2)
    with pytest.raises(NoRootInRange):
        find_gamma_critical(g, 0, "s")
    with pytest.raises(NoRootInRange):
        find_gamma_critical(g, 0, "w")
    assert find_gamma_critical(g, 0, "E") == pytest.approx(0.5, abs=1e-9)


def test_gamma_critical_points_none_for_missing_roots():
    crit = gamma_critical_points(complete_graph(2), 0)
    assert crit.gamma_s is None
    assert crit.gamma_w is None
    assert crit.gamma_E == pytest.approx(0.5, abs=1e-9)


def test_optimize_complete_graph():
    g = complete_graph(4)
    opt = optimize_search(g, 0, gamma_points=100, t_points=1500)
    assert opt.gamma_opt == pytest.approx(0.75, abs=5e-4)
    assert opt.t_opt == pytest.approx(np.pi, rel=1e-3)
    assert opt.pi_max == pytest.approx(1.0, abs=1e-6)
    assert opt.e0 == pytest.approx(-0.5, abs=1e-3)
    assert opt.e1 == pytest.approx(0.5, abs=1e-3)


def test_optimize_picks_earliest_peak():
    # all maxima of sin^2 are equal; the tie-break must take the first one
    g = complete_graph(16)
    opt = optimize_search(
        g, 0, (0.9375, 0.93751), gamma_points=2, t_points=4000, t_ceiling="volume"
    )
    assert opt.t_opt == pytest.approx(np.pi / 2.0 * 4.0, rel=1e-3)


def test_optimize_truncation_flag():
    g = complete_graph(4)
    full = optimize_search(g, 0, (0.7, 0.8), gamma_points=5, t_points=500,
                           t_ceiling="volume")
    assert not full.truncated
    capped = optimize_search(g, 0, (0.7, 0.8), gamma_points=5, t_points=500,
                             t_ceiling=2.0)
    assert capped.truncated
    assert capped.t_opt <= 2.0


def test_decomposition_complete_graph_exact():
    g = complete_graph(4)
    times = np.linspace(0.0, 4.0 * np.pi, 500)
    report = decompose_at_gamma_E(g, 0, 0.75, times)
    assert report.theta == pytest.approx(0.0, abs=1e-12)
    assert report.constant == pytest.approx(0.25, abs=1e-12)
    assert report.amplitude == pytest.approx(0.75, abs=1e-12)
    assert np.abs(report.residual).max() < 1e-12
    assert report.max_reconstruction_error < 1e-12
    np.testing.assert_allclose(
        report.success, complete_success_curve(4, times), atol=1e-10
    )


def test_decomposition_biased_lattice():
    g, lap, _ = cartesian_power(path_graph(0.7), 2)
    gamma_e = find_gamma_critical(g, 0, "E", lap=lap)
    report = decompose_at_gamma_E(g, 0, gamma_e, np.linspace(0.0, 200.0, 800), lap=lap)
    assert abs(report.e0 + report.e1) < 1e-12
    assert report.ratio_residual < 1e-8
    assert report.theta in (0.0, pytest.approx(np.pi / 2.0))
    assert report.max_reconstruction_error < 1e-10


def test_decomposition_rejects_wrong_coupling():
    g = complete_graph(4)
    with pytest.raises(NotAtGammaE):
        decompose_at_gamma_E(g, 0, 0.9, np.linspace(0.0, 5.0, 10))


def test_energy_levels_lipschitz_in_gamma():
    # dE/dgamma is a Laplacian expectation value, hence inside [0, 2]
    _, lap, _ = cartesian_power(path_graph(0.3), 2)
    gammas = np.linspace(0.2, 2.0, 121)
    e0 = np.empty(gammas.size)
    e1 = np.empty(gammas.size)
    for i, gamma in enumerate(gammas):
        sd = decompose(SearchHamiltonian(float(gamma), 0, lap), check=False)
        e0[i], e1[i] = sd.eigenvalues[0], sd.eigenvalues[1]
    step = gammas[1] - gammas[0]
    assert np.abs(np.diff(e0)).max() <= 2.0 * step + 1e-12
    assert np.abs(np.diff(e1)).max() <= 2.0 * step + 1e-12


def test_success_probability_lipschitz_in_gamma():
    # |d pi / d gamma| <= 4 t sup|Delta| <= 8 t for spectra inside [0, 2]
    lap = probabilistic_laplacian(path_graph(0.45))
    t = 7.0
    gammas = np.linspace(0.6, 1.4, 81)
    pis = np.array(
        [evolve(SearchHamiltonian(float(g), 0, lap), t).success for g in gammas]
    )
    step = gammas[1] - gammas[0]
    assert np.abs(np.diff(pis)).max() <= 8.0 * t * step + 1e-9
