import numpy as np
import pytest
from scipy.linalg import expm

from qwsearch.errors import (
    ConvergenceFailure,
    DegenerateLowStates,
    NoRootInRange,
    NotAtGammaE,
)
from qwsearch.graphs import (
    cartesian_power,
    complete_graph,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import (
    BISECTION_WIDTH,
    _golden_lockstep,
    _lockstep_roots,
    _peak_objective,
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
    SecularSolver,
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


def serial_first_root(grid, values, f):
    """The scan's former root finder: one kind at a time, one coupling per halving."""
    for i in range(grid.size - 1):
        if values[i] == 0.0:
            return float(grid[i])
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            a, b, fa = float(grid[i]), float(grid[i + 1]), float(values[i])
            while b - a > BISECTION_WIDTH:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0:
                    return mid
                if (fa < 0.0) != (fm < 0.0):
                    b = mid
                else:
                    a, fa = mid, fm
            return 0.5 * (a + b)
    if values[-1] == 0.0:
        return float(grid[-1])
    return None


def lockstep_against_serial(grid, functions):
    values = {k: np.array([f(x) for x in grid]) for k, f in functions.items()}
    batches = []

    def crossings(kinds, gammas):
        batches.append(list(kinds))
        return [functions[k](x) for k, x in zip(kinds, gammas)]

    roots = _lockstep_roots(grid, values, crossings)
    for k, f in functions.items():
        assert roots[k] == serial_first_root(grid, values[k], f), k
    return roots, batches


def halvings(width):
    steps = 0
    while width > BISECTION_WIDTH:
        width *= 0.5
        steps += 1
    return steps


GRID = np.linspace(0.0, 1.0, 5)  # 0, 0.25, 0.5, 0.75, 1 exactly


def test_lockstep_one_root():
    roots, batches = lockstep_against_serial(GRID, {"s": lambda x: x - 0.3})
    assert roots["s"] == pytest.approx(0.3, abs=BISECTION_WIDTH)
    assert len(batches) == halvings(0.25)


def test_lockstep_three_roots_in_one_batch_per_halving():
    functions = {
        "s": lambda x: x - 0.1,
        "w": lambda x: 0.6 - x,
        "E": lambda x: np.sin(8.0 * x) - 0.5,
    }
    roots, batches = lockstep_against_serial(GRID, functions)
    assert roots["s"] == pytest.approx(0.1, abs=BISECTION_WIDTH)
    assert roots["w"] == pytest.approx(0.6, abs=BISECTION_WIDTH)
    assert roots["E"] == pytest.approx(np.arcsin(0.5) / 8.0, abs=BISECTION_WIDTH)
    assert batches[0] == ["s", "w", "E"]
    assert len(batches) == halvings(0.25)


def test_lockstep_kinds_sharing_a_bracket():
    roots, batches = lockstep_against_serial(
        GRID, {"s": lambda x: x - 0.3, "w": lambda x: 2.0 * (x - 0.31)}
    )
    assert roots["s"] < roots["w"]
    assert all(b == ["s", "w"] for b in batches)


def test_lockstep_exact_zero_at_a_midpoint():
    # 0.375 is the first midpoint of [0.25, 0.5] and 0.28125 the third, both exact
    roots, batches = lockstep_against_serial(
        GRID, {"s": lambda x: x - 0.375, "w": lambda x: x - 0.28125, "E": lambda x: x - 0.7}
    )
    assert roots["s"] == 0.375 and roots["w"] == 0.28125
    assert batches[0] == ["s", "w", "E"] and batches[1] == ["w", "E"] and batches[3] == ["E"]


def test_lockstep_missing_root_and_zero_on_the_grid():
    # a zero reached from above on the grid is a root without a bracket
    roots, batches = lockstep_against_serial(
        GRID,
        {"s": lambda x: x + 1.0, "w": lambda x: 0.5 - x, "E": lambda x: x - 0.9},
    )
    assert roots["s"] is None and roots["w"] == 0.5
    assert all(b == ["E"] for b in batches)


def test_lockstep_reports_the_first_failing_halving():
    # serially s would fail first, at its 30th halving; in lockstep w fails at its 5th
    def failing_at(halving, error):
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) == halving:
                raise error(f"failed at halving {halving}")
            return x - 0.3

        return f

    functions = {"s": failing_at(30, DegenerateLowStates), "w": failing_at(5, ConvergenceFailure)}
    values = {k: GRID - 0.3 for k in functions}

    def crossings(kinds, gammas):
        return [functions[k](x) for k, x in zip(kinds, gammas)]

    with pytest.raises(ConvergenceFailure, match="halving 5"):
        _lockstep_roots(GRID, values, crossings)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.91])
def test_scan_roots_match_serial_bisection_on_a_lattice(p):
    g, lap, _ = cartesian_power(path_graph(p), 2)
    solver = SecularSolver(lap, 0)
    grid = np.linspace(0.05, 3.0, 60)
    crit = gamma_critical_points(g, 0, (0.05, 3.0), grid_points=60, solver=solver)
    for which, root in (("s", crit.gamma_s), ("w", crit.gamma_w), ("E", crit.gamma_E)):
        f = solver.crossing_function(which)
        assert root == serial_first_root(grid, np.array([f(x) for x in grid]), f), which


def test_search_rejects_a_solver_for_another_target():
    g, lap, _ = cartesian_power(path_graph(0.5), 2)
    with pytest.raises(ValueError, match="target 0, not 3"):
        gamma_critical_points(g, 3, solver=SecularSolver(lap, 0))


def serial_golden_max(f, a, b, tol):
    """One golden section at a time, the reference for _golden_lockstep; also counts its steps."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while d - c > tol:
        steps += 1
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return ((c, fc) if fc > fd else (d, fd)), steps


def test_golden_lockstep_matches_serial_sections_bit_for_bit():
    _, lap, measure = cartesian_power(path_graph(0.91), 2)
    spectra = SecularSolver(lap, 0).solve_many(np.linspace(0.3, 2.0, 200))
    rng = np.random.default_rng(7)
    # brackets of widths 1e-6 .. 10 around random times, some clipped at 0,
    # and tolerances 1e-12 .. 1e-6: the sections take different step counts
    centers = rng.uniform(0.0, measure.volume, 200)
    centers[:20] = 0.0
    widths = 10.0 ** rng.uniform(-6.0, 1.0, 200)
    lo, hi = np.maximum(0.0, centers - widths), centers + widths
    tol = 10.0 ** rng.uniform(-12.0, -6.0, 200)
    f = _peak_objective(
        np.stack([s.energies for s in spectra]), np.stack([s.amplitudes for s in spectra])
    )
    t, pi = _golden_lockstep(f, lo, hi, tol)
    counts = set()
    for i in range(len(spectra)):
        # the objective's own one-row call: what is under test is the brackets

        def lone(x, i=i):
            return float(f(np.array([i]), np.array([x]))[0])

        (t_ref, pi_ref), steps = serial_golden_max(lone, lo[i], hi[i], tol[i])
        assert (t[i], pi[i]) == (t_ref, pi_ref), i
        counts.add(steps)
    assert len(counts) > 10


@pytest.mark.parametrize("p, d", [(0.91, 2), (0.4, 2), (0.91, 4), (0.5, 5)])
def test_peak_objective_rows_match_the_lone_success_probability(p, d):
    # batched rows equal one-row calls bit for bit, and the lone
    # abs(exp(-i t E) @ alpha)^2 to within 2 ulp (its scalar ** 2 rounds through pow)
    _, lap, measure = cartesian_power(path_graph(p), d)
    spectra = SecularSolver(lap, 0).solve_many(np.linspace(0.3, 2.0, 50))
    energies = np.stack([s.energies for s in spectra])
    amps = np.stack([s.amplitudes for s in spectra])
    f = _peak_objective(energies, amps)
    rng = np.random.default_rng(11)
    rows, times = rng.integers(0, 50, 1000), rng.uniform(0.0, measure.volume, 1000)
    got = f(rows, times)
    lone = np.array([abs(np.exp(-1j * t * energies[r]) @ amps[r]) ** 2 for r, t in zip(rows, times)])
    one_row = np.array([f(np.array([r]), np.array([t]))[0] for r, t in zip(rows, times)])
    assert np.array_equal(got, one_row)
    assert (np.abs(got - lone) <= 2.0 * np.spacing(np.maximum(got, lone))).all()
