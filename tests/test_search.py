import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qwsearch import cli, search

from qwsearch.errors import (
    ConvergenceFailure,
    DegenerateLowStates,
    NonSymmetrizable,
    NoRootInRange,
    NotAtGammaE,
)
from qwsearch.graphs import (
    GAMMA_RANGE_DEFAULT,
    Laplacian,
    TransitionGraph,
    VertexMeasure,
    cartesian_power,
    complete_graph,
    kolmogorov_measure,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import (
    BISECTION_WIDTH,
    REFINE_DECADES,
    TIE_TOL,
    SearchOptimum,
    _grid_curve,
    _select_optimum,
    _time_ceiling,
    _golden_lockstep,
    _itp_point,
    _lockstep_roots,
    _optimum_window,
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
    green,
    overlaps_direct,
    overlaps_via_green,
    symmetrize,
    theorem_bound_report,
)


def complete_success_curve(n, times):
    """Closed-form success probability for the complete graph at its symmetric coupling."""
    return (n - 1) / n * np.sin(times / np.sqrt(n)) ** 2 + 1.0 / n


def complete_solver(n):
    """The solver of the complete graph on n vertices at the target 0."""
    return SecularSolver(probabilistic_laplacian(complete_graph(n)), 0)


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
    root = find_gamma_critical(complete_solver(n), "E")
    assert root == pytest.approx((n - 1) / n, abs=1e-9)


def test_gamma_roots_satisfy_their_equations():
    lap = probabilistic_laplacian(path_graph(0.5))
    solver = SecularSolver(lap, 0)
    # the target-overlap crossing of the single axis sits just above 3
    for which in ("s", "w", "E"):
        root = find_gamma_critical(solver, which, (0.05, 5.0))
        dense = overlaps_direct(SearchHamiltonian(root, 0, lap))
        assert abs(_CROSSINGS[which](dense)) < 1e-9


def test_gamma_ordering_single_axis():
    crit = gamma_critical_points(SecularSolver(probabilistic_laplacian(path_graph(0.5)), 0), (0.05, 5.0))
    assert crit.gamma_s is not None
    assert crit.gamma_w is not None
    assert crit.gamma_E is not None
    assert crit.gamma_s <= crit.gamma_E + 1e-6
    assert crit.gamma_E <= crit.gamma_w + 1e-6


def test_two_vertex_graph_has_no_overlap_crossings():
    # for two vertices the s-crossing degenerates to gamma -> 0 and the
    # w-crossing never happens, so neither root lies in the scanned range
    solver = complete_solver(2)
    with pytest.raises(NoRootInRange):
        find_gamma_critical(solver, "s")
    with pytest.raises(NoRootInRange):
        find_gamma_critical(solver, "w")
    assert find_gamma_critical(solver, "E") == pytest.approx(0.5, abs=1e-9)


def _lattice_and_complete_targets():
    # lattices at their corner and at the interior vertex (1, ..., 1), then K_4 and K_8
    for d in (1, 2, 3, 4):
        for p in (0.1, 0.5, 0.91):
            for w in (0, (4**d - 1) // 3):
                yield pytest.param(lambda d=d, p=p: cartesian_power(path_graph(p), d)[1], w, id=f"d{d}-p{p}-w{w}")
    for n in (4, 8):
        yield pytest.param(lambda n=n: probabilistic_laplacian(complete_graph(n)), 0, id=f"K{n}")


@pytest.mark.parametrize("build, w", _lattice_and_complete_targets())
def test_find_gamma_critical_is_the_field_of_the_three_kind_scan(build, w):
    solver = SecularSolver(build(), w)
    crit = gamma_critical_points(solver)
    for which in ("s", "w", "E"):
        root = getattr(crit, f"gamma_{which}")
        if root is None:
            with pytest.raises(NoRootInRange):
                find_gamma_critical(solver, which)
        else:
            assert find_gamma_critical(solver, which) == root, which


def lattice(p, d):
    return {"graph.family": "path-power", "graph.p": p, "graph.d": d}


def complete(n):
    return {"graph.family": "complete", "graph.N": n}


@pytest.mark.parametrize(
    "graph, build, notes",
    [(lattice(0.91, 2), lambda: cartesian_power(path_graph(0.91), 2)[1], []),
     (lattice(0.4, 3), lambda: cartesian_power(path_graph(0.4), 3)[1], []),
     (complete(4), lambda: probabilistic_laplacian(complete_graph(4)), []),
     (lattice(0.5, 1), lambda: probabilistic_laplacian(path_graph(0.5)),
      ["note: p=0.5: no gamma_w root in [0.05, 3.0]"]),
     (complete(2), lambda: probabilistic_laplacian(complete_graph(2)),
      ["note: N=2: no gamma_s root in [0.05, 3.0]", "note: N=2: no gamma_w root in [0.05, 3.0]"])],
    ids=["d2-p0.91", "d3-p0.4", "K4", "d1-p0.5", "K2"],
)
def test_optimize_default_window_is_around_the_scans_gamma_e(tmp_path, capsys, graph, build, notes):
    # optimize with no window runs the tables' pipeline: a 600-point scan of
    # the default range, with a note per missing root, then the optimizer on
    # +-20% around its gamma_E (the default range without one)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(graph | {
        "sweep.gamma_points": 40, "sweep.t_points": 400, "output.format": "json", "output.path": str(tmp_path),
    }))
    assert cli.main(["optimize", "--config", str(config)]) == 0
    assert capsys.readouterr().err.splitlines() == notes
    solver = SecularSolver(build(), 0)
    window = _optimum_window(gamma_critical_points(solver, grid_points=600).gamma_E, GAMMA_RANGE_DEFAULT)
    opt = optimize_search(solver, window, gamma_points=40, t_points=400)
    assert json.loads((tmp_path / "optimum.json").read_text()) == {
        "t_opt": opt.t_opt, "gamma_opt": opt.gamma_opt, "pi_max": opt.pi_max, "E0": opt.e0, "E1": opt.e1,
        "gamma_range": list(opt.gamma_range), "gamma_points": opt.gamma_points, "t_points": opt.t_points,
        "truncated": opt.truncated, "refined_gamma_step": opt.refined_gamma_step,
    }


def test_gamma_critical_points_none_for_missing_roots():
    crit = gamma_critical_points(complete_solver(2))
    assert crit.gamma_s is None
    assert crit.gamma_w is None
    assert crit.gamma_E == pytest.approx(0.5, abs=1e-9)


def test_optimize_complete_graph():
    # +-20% around K_4's gamma_E = 3/4
    opt = optimize_search(complete_solver(4), (0.6, 0.9), gamma_points=100, t_points=1500)
    assert opt.gamma_opt == pytest.approx(0.75, abs=5e-4)
    assert opt.t_opt == pytest.approx(np.pi, rel=1e-3)
    assert opt.pi_max == pytest.approx(1.0, abs=1e-6)
    assert opt.e0 == pytest.approx(-0.5, abs=1e-3)
    assert opt.e1 == pytest.approx(0.5, abs=1e-3)


def test_optimize_picks_earliest_peak():
    # all maxima of sin^2 are equal; the tie-break must take the first one.
    # At gamma_E = 15/16 the time window ends at the volume, 16
    opt = optimize_search(complete_solver(16), (0.9375, 0.93751), gamma_points=2, t_points=4000)
    assert opt.t_opt == pytest.approx(np.pi / 2.0 * 4.0, rel=1e-3)


def test_optimize_truncation_flag():
    # K_4's windows end at its volume, 4; the d=2, p=0.91 lattice's are
    # capped at 3 pi / |E1 - E0|, below its volume
    full = optimize_search(complete_solver(4), (0.7, 0.8), gamma_points=5, t_points=500)
    assert not full.truncated
    assert full.t_opt <= 4.0
    solver = SecularSolver(cartesian_power(path_graph(0.91), 2)[1], 0)
    capped = optimize_search(solver, (0.8, 1.3), gamma_points=5, t_points=500)
    assert capped.truncated
    assert capped.t_opt < solver.volume


def test_decomposition_complete_graph_exact():
    times = np.linspace(0.0, 4.0 * np.pi, 500)
    report = decompose_at_gamma_E(complete_solver(4), 0.75, times)
    assert report.theta == pytest.approx(0.0, abs=1e-12)
    assert report.constant == pytest.approx(0.25, abs=1e-12)
    assert report.amplitude == pytest.approx(0.75, abs=1e-12)
    assert np.abs(report.residual).max() < 1e-12
    assert report.max_reconstruction_error < 1e-12
    np.testing.assert_allclose(
        report.success, complete_success_curve(4, times), atol=1e-10
    )


def test_decomposition_biased_lattice():
    solver = SecularSolver(cartesian_power(path_graph(0.7), 2)[1], 0)
    gamma_e = find_gamma_critical(solver, "E")
    report = decompose_at_gamma_E(solver, gamma_e, np.linspace(0.0, 200.0, 800))
    assert abs(report.e0 + report.e1) < 1e-12
    assert report.ratio_residual < 1e-8
    assert report.theta in (0.0, pytest.approx(np.pi / 2.0))
    assert report.max_reconstruction_error < 1e-10


@pytest.mark.parametrize("offset", [-3e-9, 3e-9])
def test_decomposition_refines_an_offset_gamma_e(offset):
    # 3e-9 off the root, |E0 + E1| is still below the 1e-8 entry bound, and
    # the Newton steps on E0 + E1 land on the root to within 1e-15
    times = np.linspace(0.0, 5.0, 10)
    # K_4's symmetric coupling is 3/4
    assert abs(decompose_at_gamma_E(complete_solver(4), 0.75 + offset, times).gamma - 0.75) <= 1e-15
    solver = SecularSolver(cartesian_power(path_graph(0.7), 2)[1], 0)
    root = decompose_at_gamma_E(solver, find_gamma_critical(solver, "E"), times).gamma
    assert abs(decompose_at_gamma_E(solver, root + offset, times).gamma - root) <= 1e-15 * root


def test_decomposition_rejects_wrong_coupling():
    with pytest.raises(NotAtGammaE):
        decompose_at_gamma_E(complete_solver(4), 0.9, np.linspace(0.0, 5.0, 10))


@pytest.mark.parametrize("gamma_e", [None, float("nan"), 0.0, -1.0, True])
def test_decomposition_checks_gamma_e_before_the_set_up(monkeypatch, gamma_e):
    # gamma_critical_points gives gamma_E=None on this lattice: E0 + E1 has no
    # root in the default range; None used to raise TypeError after a solve
    solver = SecularSolver(cartesian_power(path_graph(0.1), 2)[1], 0)
    solves = []
    monkeypatch.setattr(solver, "solve_many", lambda gammas: solves.append(gammas))
    with pytest.raises(ValueError, match="gamma_E"):
        decompose_at_gamma_E(solver, gamma_e, np.linspace(0.0, 5.0, 10))
    assert solves == []


def test_analysis_makes_only_the_axis_eigh(monkeypatch):
    # every entry point reads the solver it is given: the set-up's 4 x 4
    # eigendecomposition of the axis is the only one
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: sizes.append(len(a)) or eigh(a, *args, **kw))
    solver = SecularSolver(cartesian_power(path_graph(0.6), 3)[1], 0)
    assert sizes == [4]
    sizes.clear()
    gamma_e = find_gamma_critical(solver, "E", grid_points=60)
    gamma_critical_points(solver, grid_points=60)
    optimize_search(solver, (0.8 * gamma_e, 1.2 * gamma_e), gamma_points=10, t_points=200)
    decompose_at_gamma_E(solver, gamma_e, np.linspace(0.0, 50.0, 20))
    green(solver, gamma_e, -0.5)
    overlaps_via_green(solver, gamma_e)
    theorem_bound_report(solver, gamma_e)
    assert sizes == []


def twin_cliques(k=4, bridge=0.1):
    """Two k-cliques joined only through vertex 0, each by one edge of weight bridge.

    The eigenvector of Delta that is antisymmetric under swapping the
    cliques vanishes at 0, and gamma times its eigenvalue is the first
    excited energy for the target 0 at the couplings used here (0.1 to 5).
    """
    weights = {(0, 1): 0.5, (0, k + 1): 0.5}
    for c in range(2):
        door = 1 + c * k
        members = range(door, door + k)
        for x in members:
            share = (1.0 - (bridge if x == door else 0.0)) / (k - 1)
            weights.update({(x, y): share for y in members if y != x})
        weights[(door, 0)] = bridge
    return TransitionGraph.from_weights(2 * k + 1, weights, "custom")


def test_analysis_rejects_an_invisible_first_excited_state():
    lap = probabilistic_laplacian(twin_cliques())
    solver = SecularSolver(lap, 0)
    # the dense oracle agrees that the first excited state misses e_w
    assert overlaps_direct(SearchHamiltonian(1.0, 0, lap)).w_psi1 < 1e-20
    with pytest.raises(ConvergenceFailure, match=r"level 1 .* gamma=1\.0 is orthogonal to e_w"):
        theorem_bound_report(solver, 1.0)
    # E0 + E1 still has a root, where E1 is the invisible level
    gamma_e = find_gamma_critical(solver, "E")
    with pytest.raises(ConvergenceFailure, match=r"level 1 .* is orthogonal to e_w"):
        decompose_at_gamma_E(solver, gamma_e, np.linspace(0.0, 5.0, 10))


@pytest.mark.parametrize(
    "name, value", [("gamma_points", 0), ("gamma_points", 2.0), ("t_points", 1), ("t_points", 0)]
)
def test_optimize_rejects_too_few_points(name, value):
    with pytest.raises(ValueError, match=name):
        optimize_search(complete_solver(4), (0.7, 0.8), **{"gamma_points": 3, "t_points": 50, name: value})


def test_optimize_takes_the_fewest_points():
    opt = optimize_search(complete_solver(4), (0.7, 0.8), gamma_points=1, t_points=2)
    assert opt.gamma_points == 1 and opt.t_points == 2
    assert 0.0 <= opt.t_opt <= 4.0


@pytest.mark.parametrize("grid_points", [0, 1])
def test_scans_reject_too_few_grid_points(grid_points):
    solver = complete_solver(4)
    with pytest.raises(ValueError, match="grid_points"):
        gamma_critical_points(solver, grid_points=grid_points)
    with pytest.raises(ValueError, match="grid_points"):
        find_gamma_critical(solver, "E", grid_points=grid_points)


@pytest.mark.parametrize(
    "search_call, match",
    [
        (lambda s: find_gamma_critical(s, "E", (3.0, 1.0)), "gamma_range"),
        (lambda s: find_gamma_critical(s, "E", grid_points=1), "grid_points"),
        (lambda s: find_gamma_critical(s, "x"), "unknown crossing kind"),
        (lambda s: gamma_critical_points(s, (0.0, 1.0)), "gamma_range"),
        (lambda s: gamma_critical_points(s, grid_points=1), "grid_points"),
        (lambda s: optimize_search(s, (3.0, 1.0)), "gamma_range"),
    ],
    ids=["find-range", "find-grid", "find-kind", "points-range", "points-grid", "optimize-range"],
)
def test_searches_reject_bad_arguments_before_the_setup(monkeypatch, search_call, match):
    # a bad argument must not wait for a scan of the default 600-point grid
    solver = complete_solver(6)
    solves = []
    monkeypatch.setattr(solver, "solve_many", lambda gammas: solves.append(gammas))
    with pytest.raises(ValueError, match=match):
        search_call(solver)
    assert solves == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0], ids=["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda s, x: SearchHamiltonian(x, 0, probabilistic_laplacian(complete_graph(6))), "gamma="),
        (lambda s, x: green(s, x, -0.5), "gamma="),
        (lambda s, x: decompose_at_gamma_E(s, x, np.linspace(0.0, 5.0, 10)), "gamma_E="),
        (lambda s, x: gamma_critical_points(s, (x, 1.0)), "gamma_range"),
        (lambda s, x: gamma_critical_points(s, (0.5, x)), "gamma_range"),
        (lambda s, x: find_gamma_critical(s, "E", (0.5, x)), "gamma_range"),
        (lambda s, x: optimize_search(s, (x, 1.0)), "gamma_range"),
        (lambda s, x: optimize_search(s, (0.5, x)), "gamma_range"),
    ],
    ids=["hamiltonian", "green", "decompose", "points-lo", "points-hi", "find-hi", "optimize-lo", "optimize-hi"],
)
def test_a_coupling_or_window_end_must_be_positive_and_finite(monkeypatch, call, match, bad):
    # one rule, checked before any solve and before numpy can warn: an infinite
    # window end once reached np.linspace, and a NaN coupling the dense eigh
    solver = complete_solver(6)
    solves = []
    monkeypatch.setattr(solver, "solve_many", lambda gammas: solves.append(gammas))
    with pytest.raises(ValueError, match=match):
        call(solver, bad)
    assert solves == []


def test_energy_levels_lipschitz_in_gamma():
    # dE/dgamma is a Laplacian expectation value, hence inside [0, 2]
    _, lap, _ = cartesian_power(path_graph(0.3), 2)
    gammas = np.linspace(0.2, 2.0, 121)
    e0 = np.empty(gammas.size)
    e1 = np.empty(gammas.size)
    for i, gamma in enumerate(gammas):
        sd = decompose(SearchHamiltonian(float(gamma), 0, lap))
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


def halvings(width):
    steps = 0
    while width > BISECTION_WIDTH:
        width *= 0.5
        steps += 1
    return steps


def first_bracket(grid, values):
    """The grid bracket of the first sign change, or None for a root on the grid or none at all."""
    for i in range(grid.size - 1):
        if values[i] == 0.0:
            return None
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            return float(grid[i]), float(grid[i + 1])
    return None


def crossing_functions(solver):
    """gamma -> crossing value of each kind at one lone solve, as the scan's refinement sees it."""
    return {
        which: lambda gamma, f=_CROSSINGS[which]: f(solver.solve(gamma).low_pair())
        for which in ("s", "w", "E")
    }


def run_lockstep(grid, functions):
    """_lockstep_roots on these crossing functions, with its batches and each kind's points.

    Checks the ITP contract for every kind whose first sign change is
    bracketed: the kind steps exactly as it does alone; it takes at most one
    call more than bisection; and its root is either a point where the
    crossing is exactly zero, or the midpoint of two adjacent evaluated
    points with a sign change between them, at most BISECTION_WIDTH (or
    one ulp) apart.
    """
    values = {k: np.array([f(x) for x in grid]) for k, f in functions.items()}
    batches, points = [], {k: [] for k in functions}

    def crossings(kinds, gammas):
        batches.append(list(kinds))
        for k, x in zip(kinds, gammas):
            points[k].append(x)
        return [functions[k](x) for k, x in zip(kinds, gammas)]

    roots = _lockstep_roots(grid, values, crossings)
    for k, f in functions.items():
        alone = _lockstep_roots(grid, {k: values[k]}, lambda kinds, xs, f=f: [f(x) for x in xs])
        assert alone[k] == roots[k], k
        bracket = first_bracket(grid, values[k])
        if bracket is None:
            assert not points[k], k
            continue
        a0, b0 = bracket
        assert len(points[k]) <= halvings(b0 - a0) + 1, k
        if f(roots[k]) == 0.0 and roots[k] in points[k]:
            continue
        ends = sorted({a0, b0, *points[k]})
        final = [
            (a, b)
            for a, b in zip(ends, ends[1:])
            if roots[k] == 0.5 * (a + b) and (f(a) < 0.0) != (f(b) < 0.0)
        ]
        assert len(final) == 1, k
        a, b = final[0]
        assert b - a <= BISECTION_WIDTH or np.nextafter(a, b) == b, k
    return roots, batches, points


def ordered_subset(batch, kinds):
    return bool(batch) and batch == [k for k in kinds if k in batch]


GRID = np.linspace(0.0, 1.0, 5)  # 0, 0.25, 0.5, 0.75, 1 exactly


def test_lockstep_one_root():
    roots, batches, points = run_lockstep(GRID, {"s": lambda x: x - 0.3})
    assert roots["s"] == pytest.approx(0.3, abs=BISECTION_WIDTH)
    assert all(b == ["s"] for b in batches)
    # regula falsi is exact on a line, and the truncation closes both sides fast
    assert len(points["s"]) <= 12


def test_lockstep_three_roots_in_one_batch_per_step():
    functions = {
        "s": lambda x: x - 0.1,
        "w": lambda x: 0.6 - x,
        "E": lambda x: np.sin(8.0 * x) - 0.5,
    }
    roots, batches, _ = run_lockstep(GRID, functions)
    assert roots["s"] == pytest.approx(0.1, abs=BISECTION_WIDTH)
    assert roots["w"] == pytest.approx(0.6, abs=BISECTION_WIDTH)
    assert roots["E"] == pytest.approx(np.arcsin(0.5) / 8.0, abs=BISECTION_WIDTH)
    assert batches[0] == ["s", "w", "E"]
    # one batch per step, each naming the kinds still open in their order
    assert all(ordered_subset(b, ["s", "w", "E"]) for b in batches)
    assert len(batches) <= halvings(0.25) + 1


def test_lockstep_worst_case_is_one_call_past_bisection():
    # a jump, a flat ninth-order root and a kink, where interpolation helps little
    functions = {
        "s": lambda x: -1.0 if x < 1.0 / 3.0 else 1.0,
        "w": lambda x: (x - 0.6) ** 9,
        "E": lambda x: x - 0.3 if x < 0.3 else 1e6 * (x - 0.3),
    }
    run_lockstep(GRID, functions)
    run_lockstep(np.linspace(0.05, 3.0, 60), functions)


def test_lockstep_closes_a_bracket_with_no_float_inside():
    # above 8192 an ulp exceeds BISECTION_WIDTH: the bracket ends one ulp apart
    grid = np.linspace(1e4, 1e4 + 1.0, 3)
    root = 1e4 + 0.3
    roots, _, points = run_lockstep(grid, {"s": lambda x: -1.0 if x <= root else 1.0})
    assert root <= roots["s"] <= np.nextafter(root, np.inf)
    assert len(points["s"]) <= halvings(0.5) + 1


def test_lockstep_kinds_sharing_a_bracket():
    roots, batches, _ = run_lockstep(
        GRID, {"s": lambda x: x - 0.3, "w": lambda x: 2.0 * (x - 0.31)}
    )
    assert roots["s"] < roots["w"]
    assert batches[0] == ["s", "w"]
    assert all(ordered_subset(b, ["s", "w"]) for b in batches)


def test_lockstep_exact_zero_at_a_step_point():
    # a crossing that is exactly zero at the first point of its bracket is
    # rooted there; the kinds after it in the batch step on without it
    first = _itp_point(0.25, 0.5, 0.25 - 0.3, 0.5 - 0.3, 0.2 / 0.25, halvings(0.25) + 1)
    functions = {
        "s": lambda x: 0.0 if x == first else x - 0.3,
        "w": lambda x: x - 0.31,
        "E": lambda x: x - 0.7,
    }
    roots, batches, points = run_lockstep(GRID, functions)
    assert roots["s"] == first and points["s"] == [first]
    assert batches[0] == ["s", "w", "E"]
    assert all(b == ["w", "E"] or b == ["w"] or b == ["E"] for b in batches[1:])


def test_lockstep_missing_root_and_zero_on_the_grid():
    # a zero reached from above on the grid is a root without a bracket
    roots, batches, _ = run_lockstep(
        GRID,
        {"s": lambda x: x + 1.0, "w": lambda x: 0.5 - x, "E": lambda x: x - 0.9},
    )
    assert roots["s"] is None and roots["w"] == 0.5
    assert roots["E"] == pytest.approx(0.9, abs=BISECTION_WIDTH)
    assert batches and all(b == ["E"] for b in batches)


def test_lockstep_reports_the_first_failing_step():
    # alone, s would fail first, at its 3rd call; in lockstep w fails at its
    # 2nd, the step before; on a shared step the first kind in the batch wins
    def failing_at(call, error):
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) == call:
                raise error(f"failed at call {call}")
            return x - 0.3

        return f

    def run(functions):
        values = {k: GRID - 0.3 for k in functions}
        crossings = lambda kinds, gammas: [functions[k](x) for k, x in zip(kinds, gammas)]  # noqa: E731
        _lockstep_roots(GRID, values, crossings)

    with pytest.raises(ConvergenceFailure, match="call 2"):
        run({"s": failing_at(3, DegenerateLowStates), "w": failing_at(2, ConvergenceFailure)})
    with pytest.raises(DegenerateLowStates, match="call 2"):
        run({"s": failing_at(2, DegenerateLowStates), "w": failing_at(2, ConvergenceFailure)})


@pytest.mark.parametrize("p", [0.1, 0.5, 0.91])
def test_scan_roots_match_serial_bisection_on_a_lattice(p):
    solver = SecularSolver(cartesian_power(path_graph(p), 2)[1], 0)
    grid = np.linspace(0.05, 3.0, 60)
    crit = gamma_critical_points(solver, (0.05, 3.0), grid_points=60)
    functions = crossing_functions(solver)
    roots, _, _ = run_lockstep(grid, functions)
    for which, root in (("s", crit.gamma_s), ("w", crit.gamma_w), ("E", crit.gamma_E)):
        f = functions[which]
        assert root == roots[which], which
        reference = serial_first_root(grid, np.array([f(x) for x in grid]), f)
        assert (root is None) == (reference is None), which
        assert root is None or abs(root - reference) <= BISECTION_WIDTH, which


def test_itp_takes_few_calls_on_the_d4_lattice():
    # the benchmark's tables row: bisection takes 36 calls per root
    g, lap, _ = cartesian_power(path_graph(0.91), 4)
    solver = SecularSolver(lap, 0)
    grid = np.linspace(0.05, 3.0, 60)
    functions = crossing_functions(solver)
    roots, batches, points = run_lockstep(grid, functions)
    assert all(roots.values())
    assert max(len(x) for x in points.values()) <= 12
    assert halvings(grid[1] - grid[0]) == 36


def test_search_rejects_a_product_laplacian_with_another_measure():
    # the uniform measure does not make the p = 0.4 lattice self-adjoint; the
    # solver used to take it, and optimize_search reported pi_max = 1.342
    g, lap, _ = cartesian_power(path_graph(0.4), 3)
    uniform = Laplacian(g, VertexMeasure(np.ones(64), 64.0))
    with pytest.raises(NonSymmetrizable, match="measure"):
        SecularSolver(uniform, 0)
    # the true measure over twice its volume would halve mu(w) / vol
    doubled = Laplacian(g, VertexMeasure(lap.measure.mu, 2.0 * lap.measure.volume))
    with pytest.raises(NonSymmetrizable, match="measure"):
        SecularSolver(doubled, 0)
    # the same for a graph that is not a product
    path = probabilistic_laplacian(path_graph(0.4))
    path_doubled = Laplacian(path.graph, VertexMeasure(path.measure.mu, 2.0 * path.measure.volume))
    with pytest.raises(NonSymmetrizable, match="measure"):
        SecularSolver(path_doubled, 0)


def test_search_takes_a_product_measure_built_another_way():
    # kolmogorov_measure over the whole lattice propagates along a tree; at
    # p = 0.7, d = 3 it differs from the product of the axis measures in its
    # last bits, in mu and in the volume, within the set-up's tolerance
    g, lap, _ = cartesian_power(path_graph(0.7), 3)
    walked = kolmogorov_measure(g)
    assert not np.array_equal(walked.mu, lap.measure.mu) and walked.volume != lap.measure.volume
    solver = SecularSolver(lap, 0)
    reference = optimize_search(solver, (0.5, 2.0), gamma_points=20, t_points=300)
    gamma_e = find_gamma_critical(solver, "E")
    # a measure scaled by a constant, with its volume, is as good
    scaled = VertexMeasure(3.0 * lap.measure.mu, 3.0 * lap.measure.volume)
    for measure in (walked, scaled):
        solver = SecularSolver(Laplacian(g, measure), 0)
        other = optimize_search(solver, (0.5, 2.0), gamma_points=20, t_points=300)
        assert other.pi_max == pytest.approx(reference.pi_max, rel=1e-12)
        assert gamma_critical_points(solver).gamma_E == pytest.approx(gamma_e, rel=1e-12)


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


def unpruned_optimum(solver, gamma_range, gamma_points, t_points):
    """optimize_search as it was before pruning: every coupling gets a curve and a refined peak."""
    volume = solver.volume

    def eval_grid(gammas):
        spectra = solver.solve_many(gammas)
        rows, peaks, brackets = [], [], []
        for spec in spectra:
            e0, e1 = float(spec.levels[0]), float(spec.levels[1])
            ceiling = _time_ceiling(volume, abs(e1 - e0))
            times, curve = _grid_curve(spec.energies, spec.amplitudes, ceiling, t_points)
            idx = int(np.nonzero(curve >= curve.max() - TIE_TOL)[0][0])
            dt = times[1] - times[0]
            rows.append((spec.gamma, e0, e1, ceiling < volume))
            peaks.append((float(times[idx]), float(curve[idx])))
            brackets.append(
                (max(0.0, times[idx] - dt), min(ceiling, times[idx] + dt), 1e-10 * max(1.0, ceiling))
            )
        lo_t, hi_t, tol = np.array(brackets).T
        t_ref, pi_ref = _golden_lockstep(
            _peak_objective(
                np.stack([s.energies for s in spectra]), np.stack([s.amplitudes for s in spectra])
            ),
            lo_t,
            hi_t,
            tol,
        )
        return [
            (t_grid, pi_grid, *row) if pi_r < pi_grid else (float(t_r), float(pi_r), *row)
            for t_r, pi_r, (t_grid, pi_grid), row in zip(t_ref, pi_ref, peaks, rows)
        ]

    lo, hi = gamma_range
    pool = eval_grid(np.linspace(lo, hi, gamma_points))
    step = (hi - lo) / (gamma_points - 1) if gamma_points > 1 else hi - lo
    for _ in range(REFINE_DECADES):
        center = _select_optimum(pool)[2]
        pool.extend(eval_grid(np.linspace(max(lo, center - step), min(hi, center + step), 21)))
        step /= 10.0
    best = _select_optimum(pool)
    return SearchOptimum(
        t_opt=best[0],
        gamma_opt=best[2],
        pi_max=best[1],
        e0=best[3],
        e1=best[4],
        gamma_range=(lo, hi),
        gamma_points=gamma_points,
        t_points=t_points,
        truncated=any(r[5] for r in pool),
        refined_gamma_step=step,
    )


def assert_pruning_keeps_the_optimum(lap, w, gamma_range, gamma_points, t_points):
    solver = SecularSolver(lap, w)
    pruned = optimize_search(solver, gamma_range, gamma_points=gamma_points, t_points=t_points)
    assert pruned == unpruned_optimum(solver, gamma_range, gamma_points, t_points)


st_window = st.tuples(
    st.floats(min_value=0.2, max_value=2.0), st.floats(min_value=0.01, max_value=1.0)
).map(lambda lw: (lw[0], lw[0] + lw[1]))


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(min_value=0.02, max_value=0.98),
    d=st.integers(min_value=1, max_value=4),
    window=st_window,
    gamma_points=st.integers(min_value=2, max_value=40),
    t_points=st.integers(min_value=20, max_value=600),
    data=st.data(),
)
def test_pruned_optimum_equals_the_unpruned_one_on_lattices(p, d, window, gamma_points, t_points, data):
    g, lap, _ = cartesian_power(path_graph(p), d)
    w = data.draw(st.sampled_from([0, g.n - 1, g.n // 3]), label="target")
    try:
        assert_pruning_keeps_the_optimum(lap, w, window, gamma_points, t_points)
    except DegenerateLowStates:
        # both refuse such a window alike; the lone solves say which coupling
        with pytest.raises(DegenerateLowStates):
            unpruned_optimum(SecularSolver(lap, w), window, gamma_points, t_points)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    window=st_window,
    gamma_points=st.integers(min_value=2, max_value=40),
    t_points=st.integers(min_value=20, max_value=600),
)
def test_pruned_optimum_equals_the_unpruned_one_on_complete_graphs(n, window, gamma_points, t_points):
    assert_pruning_keeps_the_optimum(probabilistic_laplacian(complete_graph(n)), 0, window, gamma_points, t_points)


def test_pruning_draws_few_curves_on_the_d4_tables_row(monkeypatch):
    # the benchmark's tables-d4 seed-0 row: 200 + 2 x 21 couplings
    solver = SecularSolver(cartesian_power(path_graph(0.91), 4)[1], 0)
    gamma_e = gamma_critical_points(solver, (0.05, 3.0), grid_points=60).gamma_E
    window = (0.8 * gamma_e, 1.2 * gamma_e)
    curves = []
    monkeypatch.setattr(search, "_grid_curve", lambda *args: curves.append(args) or _grid_curve(*args))
    pruned = optimize_search(solver, window, gamma_points=200, t_points=500)
    assert 1 <= len(curves) <= 10
    monkeypatch.undo()
    assert pruned == unpruned_optimum(solver, window, 200, 500)
