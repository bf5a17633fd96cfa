"""Time evolution, success probability, critical couplings and the search optimum.

The initial state is the uniform ground state of the Laplacian; evolving it
under gamma * Delta - V_w and reading off the squared target amplitude gives
the success probability pi(t).  Three critical couplings mark where the two
lowest states exchange character: equal overlaps with the initial state
(gamma_s), equal overlaps with the target (gamma_w), and symmetric energies
E0 = -E1 (gamma_E).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NoRootInRange, NotAtGammaE
from .graphs import Laplacian, TransitionGraph, probabilistic_laplacian
from .spectral import (
    _CROSSINGS,
    SearchHamiltonian,
    SecularSolver,
    SpectralData,
    _ground_sym,
    _require_simple_low_states,
    decompose,
)

GAMMA_RANGE_DEFAULT = (0.05, 3.0)
SCAN_POINTS_DEFAULT = 600
OPT_GAMMA_POINTS_DEFAULT = 200
OPT_T_POINTS_DEFAULT = 4000
BISECTION_WIDTH = 1e-12
TIE_TOL = 1e-9
REFINE_DECADES = 2
_CHUNK = 512


@dataclass(frozen=True)
class EvolutionResult:
    """State exp(-iHt) s as a complex vertex function, with its target probability."""

    time: float
    state: np.ndarray
    success: float


def evolve(
    h: SearchHamiltonian, t: float, *, spectral: SpectralData | None = None
) -> EvolutionResult:
    """Evolve the uniform ground state for time t via the spectral exponential."""
    if t < 0:
        raise ValueError(f"time t={t} must be nonnegative")
    sd = spectral if spectral is not None else decompose(h)
    coeff = sd.sym_vectors.T @ _ground_sym(sd.sqrt_mu)
    u = sd.sym_vectors @ (np.exp(-1j * sd.eigenvalues * t) * coeff)
    return EvolutionResult(
        time=t,
        state=u / sd.sqrt_mu,
        success=float(abs(u[h.target]) ** 2),
    )


def success_curve(
    h: SearchHamiltonian,
    times: np.ndarray,
    *,
    spectral: SpectralData | None = None,
) -> np.ndarray:
    """Success probability on a time grid, vectorized over times."""
    sd = spectral if spectral is not None else decompose(h)
    amps = _target_amplitudes(sd, h.target)
    return _curve(sd.eigenvalues, amps, np.asarray(times, dtype=float))


def _target_amplitudes(sd: SpectralData, w: int) -> np.ndarray:
    # per-state product <e_w, psi_a><psi_a, s>; pi(t) = |sum_a amp_a e^{-i E_a t}|^2
    return sd.sym_vectors[w, :] * (sd.sym_vectors.T @ _ground_sym(sd.sqrt_mu))


def _exp_sum(evals: np.ndarray, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    # sum_a amps_a e^{-i E_a t} on a time grid, _CHUNK times per matmul to bound memory
    out = np.empty(times.size, dtype=complex)
    for i in range(0, times.size, _CHUNK):
        tt = times[i : i + _CHUNK]
        out[i : i + _CHUNK] = np.exp(-1j * tt[:, None] * evals[None, :]) @ amps
    return out


def _curve(evals: np.ndarray, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.abs(_exp_sum(evals, amps, times)) ** 2


@dataclass(frozen=True)
class GammaCriticalPoints:
    """Smallest couplings where the marked overlap/energy crossings occur.

    A field is None when the corresponding function has no sign change in the
    scanned range.
    """

    gamma_s: float | None
    gamma_w: float | None
    gamma_E: float | None


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _first_root(grid: np.ndarray, values: np.ndarray, f) -> float | None:
    for i in range(grid.size - 1):
        if values[i] == 0.0:
            return float(grid[i])
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            return _bisect(f, float(grid[i]), float(grid[i + 1]), float(values[i]))
    if values[-1] == 0.0:
        return float(grid[-1])
    return None


def _bisect(f, a: float, b: float, fa: float) -> float:
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


def _scan(
    solver: SecularSolver,
    kinds: tuple[str, ...],
    gamma_range: tuple[float, float],
    grid_points: int,
    threads: int,
) -> dict[str, float | None]:
    """First root of each requested crossing kind, or None, from one shared grid."""
    lo, hi = gamma_range
    if not (0.0 < lo < hi):
        raise ValueError(f"gamma_range {gamma_range} must satisfy 0 < lo < hi")
    crossings = {which: solver.crossing_function(which) for which in kinds}
    grid = np.linspace(lo, hi, grid_points)
    reports = _map_ordered(solver.low_pair, grid, threads)
    return {
        which: _first_root(grid, np.array([_CROSSINGS[which](r) for r in reports]), f)
        for which, f in crossings.items()
    }


def find_gamma_critical(
    graph: TransitionGraph,
    w: int,
    which: str,
    gamma_range: tuple[float, float] = GAMMA_RANGE_DEFAULT,
    *,
    grid_points: int = SCAN_POINTS_DEFAULT,
    lap: Laplacian | None = None,
    threads: int = 1,
) -> float:
    """Smallest root of the chosen crossing function in gamma_range.

    Scans a uniform grid for the first sign change, then bisects it down to a
    bracket narrower than 1e-12.  Raises NoRootInRange if the scanned values
    never change sign.
    """
    lap = lap if lap is not None else probabilistic_laplacian(graph)
    root = _scan(SecularSolver(lap, w), (which,), gamma_range, grid_points, threads)[which]
    if root is None:
        lo, hi = gamma_range
        raise NoRootInRange(
            f"no sign change of the '{which}' crossing in [{lo}, {hi}]"
        )
    return root


def gamma_critical_points(
    graph: TransitionGraph,
    w: int,
    gamma_range: tuple[float, float] = GAMMA_RANGE_DEFAULT,
    *,
    grid_points: int = SCAN_POINTS_DEFAULT,
    lap: Laplacian | None = None,
    threads: int = 1,
) -> GammaCriticalPoints:
    """All three critical couplings from a single shared grid scan."""
    lap = lap if lap is not None else probabilistic_laplacian(graph)
    roots = _scan(SecularSolver(lap, w), ("s", "w", "E"), gamma_range, grid_points, threads)
    return GammaCriticalPoints(
        gamma_s=roots["s"], gamma_w=roots["w"], gamma_E=roots["E"]
    )


@dataclass(frozen=True)
class SearchOptimum:
    """Earliest-time, smallest-coupling absolute maximum of the success probability.

    ``truncated`` records whether any time window was capped below the graph
    volume by the spectral-gap ceiling.
    """

    t_opt: float
    gamma_opt: float
    pi_max: float
    e0: float
    e1: float
    gamma_range: tuple[float, float]
    gamma_points: int
    t_points: int
    t_ceiling: str | float
    truncated: bool
    refined_gamma_step: float


def _time_ceiling(policy, volume: float, gap: float) -> float:
    if policy == "auto":
        return min(volume, 3.0 * np.pi / max(gap, 1e-300))
    if policy == "volume":
        return volume
    return float(policy)


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while d - c > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc > fd else (d, fd)


def optimize_search(
    graph: TransitionGraph,
    w: int,
    gamma_range: tuple[float, float] | None = None,
    *,
    gamma_points: int = OPT_GAMMA_POINTS_DEFAULT,
    t_points: int = OPT_T_POINTS_DEFAULT,
    t_ceiling: str | float = "auto",
    lap: Laplacian | None = None,
    threads: int = 1,
) -> SearchOptimum:
    """Locate (t_opt, gamma_opt) maximizing the success probability.

    A coarse gamma grid (default spanning +-20% around gamma_E when it exists)
    is scanned; each gamma gets a uniform time grid up to the ceiling
    min(volume, 3 pi / |E1 - E0|) plus a golden-section refinement of its best
    peak.  The winning gamma is then re-gridded ``REFINE_DECADES`` times, one
    decade finer each pass.  Among all evaluated points within 1e-9 of the
    maximum, the earliest time and then the smallest coupling win.
    """
    lap = lap if lap is not None else probabilistic_laplacian(graph)
    solver = SecularSolver(lap, w)
    volume = lap.measure.volume

    if gamma_range is None:
        g_e = _scan(solver, ("E",), GAMMA_RANGE_DEFAULT, SCAN_POINTS_DEFAULT, threads)["E"]
        gamma_range = (0.8 * g_e, 1.2 * g_e) if g_e is not None else GAMMA_RANGE_DEFAULT
    lo, hi = gamma_range
    if not (0.0 < lo < hi):
        raise ValueError(f"gamma_range {gamma_range} must satisfy 0 < lo < hi")

    def eval_gamma(gamma: float) -> tuple[float, float, float, float, float, bool]:
        spec = solver.solve(gamma)
        e0, e1 = float(spec.levels[0]), float(spec.levels[1])
        ceiling = _time_ceiling(t_ceiling, volume, abs(e1 - e0))
        times = np.linspace(0.0, ceiling, t_points)
        curve = _curve(spec.energies, spec.amplitudes, times)
        peak = curve.max()
        idx = int(np.nonzero(curve >= peak - TIE_TOL)[0][0])
        dt = times[1] - times[0]
        t_ref, pi_ref = _golden_max(
            lambda t: float(
                abs(np.exp(-1j * t * spec.energies) @ spec.amplitudes) ** 2
            ),
            max(0.0, times[idx] - dt),
            min(ceiling, times[idx] + dt),
            tol=1e-10 * max(1.0, ceiling),
        )
        if pi_ref < curve[idx]:
            t_ref, pi_ref = float(times[idx]), float(curve[idx])
        return (t_ref, pi_ref, gamma, e0, e1, ceiling < volume)

    grid = np.linspace(lo, hi, gamma_points)
    pool = _map_ordered(eval_gamma, grid, threads)
    step = (hi - lo) / (gamma_points - 1) if gamma_points > 1 else hi - lo
    for _ in range(REFINE_DECADES):
        best = _select_optimum(pool)
        center = best[2]
        fine = np.linspace(max(lo, center - step), min(hi, center + step), 21)
        pool.extend(_map_ordered(eval_gamma, fine, threads))
        step /= 10.0
    best = _select_optimum(pool)
    truncated = any(r[5] for r in pool)
    return SearchOptimum(
        t_opt=best[0],
        gamma_opt=best[2],
        pi_max=best[1],
        e0=best[3],
        e1=best[4],
        gamma_range=(lo, hi),
        gamma_points=gamma_points,
        t_points=t_points,
        t_ceiling=t_ceiling,
        truncated=truncated,
        refined_gamma_step=step,
    )


def _select_optimum(pool):
    pi_max = max(r[1] for r in pool)
    near = [r for r in pool if r[1] >= pi_max - TIE_TOL]
    return min(near, key=lambda r: (r[0], r[2]))


@dataclass(frozen=True)
class DecompositionReport:
    """Two-level reduction of the success probability at the symmetric coupling.

    At gamma_E the curve reduces to amplitude * sin^2(E1 t + theta) + constant
    plus the residual R(t) carried by the higher states.  The reconstruction
    from these pieces must match the directly computed probability pointwise.
    """

    gamma: float
    theta: float
    constant: float
    amplitude: float
    e0: float
    e1: float
    times: np.ndarray
    two_level: np.ndarray
    higher_order: np.ndarray
    residual: np.ndarray
    success: np.ndarray
    reconstruction: np.ndarray
    ratio_residual: float
    max_reconstruction_error: float


def decompose_at_gamma_E(
    graph: TransitionGraph,
    w: int,
    gamma_E: float,
    t_samples: np.ndarray,
    *,
    lap: Laplacian | None = None,
) -> DecompositionReport:
    """Decompose pi(t) into its two-level part and higher-state residual.

    Requires |E0 + E1| < 1e-8 at the supplied coupling.  The coupling is then
    refined by secant steps until E0 + E1 sits at the eigensolver noise floor,
    which is what makes the pointwise reconstruction identity hold to full
    precision.
    """
    lap = lap if lap is not None else probabilistic_laplacian(graph)
    f_e = SecularSolver(lap, w).crossing_function("E")
    gamma = float(gamma_E)
    f0 = f_e(gamma)
    if abs(f0) >= 1e-8:
        raise NotAtGammaE(f"E0 + E1 = {f0:.3e} at gamma={gamma}; not a symmetric point")
    gamma, f0 = _polish_root(f_e, gamma, f0)

    sd = decompose(SearchHamiltonian(gamma, w, lap))
    _require_simple_low_states(sd.eigenvalues, sd.spectral_range)
    coeff = sd.sym_vectors.T @ _ground_sym(sd.sqrt_mu)
    wv = sd.sym_vectors[w, :]
    alpha = wv * coeff
    s0_sq, s1_sq = coeff[0] ** 2, coeff[1] ** 2
    w0_sq, w1_sq = wv[0] ** 2, wv[1] ** 2

    ratio0 = w0_sq / s0_sq
    ratio1 = w1_sq / s1_sq
    ratio_residual = abs(ratio1 - ratio0) / max(ratio0, ratio1)
    if ratio_residual > 1e-8:
        raise NotAtGammaE(
            f"overlap ratio identity fails (residual {ratio_residual:.3e}); "
            "coupling is not at the symmetric point"
        )

    phase = -(coeff[1] * wv[0]) / (coeff[0] * wv[1])
    theta = 0.5 * np.angle(complex(phase))
    if theta < 0.0:
        theta += np.pi

    e0, e1 = float(sd.eigenvalues[0]), float(sd.eigenvalues[1])
    times = np.asarray(t_samples, dtype=float)
    two_level = alpha[0] * np.exp(-1j * e0 * times) + alpha[1] * np.exp(-1j * e1 * times)
    higher = _exp_sum(sd.eigenvalues[2:], alpha[2:], times)
    residual = 2.0 * (two_level * np.conj(higher)).real + np.abs(higher) ** 2
    success = np.abs(two_level + higher) ** 2
    amplitude = 4.0 * s0_sq * w1_sq
    constant = w0_sq * s0_sq + w1_sq * s1_sq - 2.0 * s0_sq * w1_sq
    reconstruction = amplitude * np.sin(e1 * times + theta) ** 2 + constant + residual
    return DecompositionReport(
        gamma=gamma,
        theta=float(theta),
        constant=float(constant),
        amplitude=float(amplitude),
        e0=e0,
        e1=e1,
        times=times,
        two_level=two_level,
        higher_order=higher,
        residual=residual,
        success=success,
        reconstruction=reconstruction,
        ratio_residual=float(ratio_residual),
        max_reconstruction_error=float(np.abs(reconstruction - success).max()),
    )


def _polish_root(f, x0: float, f0: float, max_iter: int = 20) -> tuple[float, float]:
    """Secant refinement of a root already bracketed to ~1e-8."""
    best_x, best_f = x0, f0
    x1 = x0 + 1e-9
    f1 = f(x1)
    if abs(f1) < abs(best_f):
        best_x, best_f = x1, f1
    for _ in range(max_iter):
        if f1 == f0 or abs(best_f) < 1e-16:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        f2 = f(x2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        if abs(f2) < abs(best_f):
            best_x, best_f = x2, f2
    return best_x, best_f
