"""Success probability, critical couplings and the search optimum.

The initial state is the uniform ground state of the Laplacian; evolving it
under gamma * Delta - V_w and reading off the squared target amplitude gives
the success probability pi(t), an exponential sum over one secular solve.
Three critical couplings mark where the two lowest states exchange
character: equal overlaps with the initial state (gamma_s), equal overlaps
with the target (gamma_w), and symmetric energies E0 = -E1 (gamma_E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootInRange, NotAtGammaE
from .graphs import (
    GAMMA_RANGE_DEFAULT,
    OPT_GAMMA_POINTS_DEFAULT,
    OPT_T_POINTS_DEFAULT,
    SCAN_POINTS_DEFAULT,
    _positive_finite,
    _require_count,
    _require_positive,
)
from .spectral import SecularSolver, SecularSpectrum, _crossing, _require_visible_low_pair

BISECTION_WIDTH = 1e-12
TIE_TOL = 1e-9
REFINE_DECADES = 2
_CHUNK = 512


def success_curve(spectrum: SecularSpectrum, times: np.ndarray) -> np.ndarray:
    """Success probability pi(t) = |sum_a alpha_a e^{-i E_a t}|^2 of one solve, at each time.

    ``spectrum`` is one ``SecularSolver.solve(gamma)``; the sum runs over its
    visible energies and amplitudes, so no Hamiltonian is decomposed.
    """
    return np.abs(_exp_sum(spectrum.energies, spectrum.amplitudes, np.asarray(times, dtype=float))) ** 2


def _exp_sum(evals: np.ndarray, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    # sum_a amps_a e^{-i E_a t} on a time grid, _CHUNK times per matmul to bound memory
    out = np.empty(times.size, dtype=complex)
    for i in range(0, times.size, _CHUNK):
        tt = times[i : i + _CHUNK]
        out[i : i + _CHUNK] = np.exp(-1j * tt[:, None] * evals[None, :]) @ amps
    return out


def _grid_curve(
    evals: np.ndarray, amps: np.ndarray, stop: float, num: int
) -> tuple[np.ndarray, np.ndarray]:
    """The time grid np.linspace(0, stop, num) and pi(t) on it.

    Baby-step/giant-step: with B = ceil(sqrt(num)), grid point bB + k is the
    block start bB plus the offset k < B, so e^{-i E t} is the product of one
    row of a B-row offset table and one of ceil(num/B) block-start rows.  That
    is (B + ceil(num/B)) m complex exponentials for m energies, in place of
    num m, and one matmul.  The curve agrees with ``success_curve`` on the
    same times up to the rounding of E t.
    """
    times = np.linspace(0.0, stop, num)
    width = math.isqrt(num - 1) + 1
    offsets = np.exp(-1j * times[:width, None] * evals)
    starts = amps * np.exp(-1j * times[::width, None] * evals)
    return times, np.abs((starts @ offsets.T).ravel()[:num]) ** 2


@dataclass(frozen=True)
class GammaCriticalPoints:
    """Smallest couplings where the marked overlap/energy crossings occur.

    A field is None when the corresponding function has no sign change in the
    scanned range.
    """

    gamma_s: float | None
    gamma_w: float | None
    gamma_E: float | None


def _halvings(width: float) -> int:
    """Bisection steps that take a bracket of this width to at most ``BISECTION_WIDTH``."""
    steps = 0
    while width > BISECTION_WIDTH:
        width *= 0.5
        steps += 1
    return steps


# ITP aims a sliver below BISECTION_WIDTH, so a last step that rounds by an
# ulp of a coupling up to about 30 still closes its bracket
_ITP_TARGET = 0.5 * BISECTION_WIDTH * (1.0 - 2.0**-6)
# Least truncation: once kappa1 (b - a)^2 falls below an ulp, the truncated
# point is the interpolation point itself, and when that sits on an end of
# the bracket the step is lost.  Stepping a quarter of BISECTION_WIDTH past
# it closes the bracket instead.
_ITP_MIN_STEP = 0.25 * BISECTION_WIDTH


def _itp_point(a: float, b: float, fa: float, fb: float, kappa1: float, steps_left: int) -> float:
    """The next ITP point in [a, b], where fa and fb differ in sign.

    Interpolate (regula falsi), Truncate towards the midpoint by
    kappa1 (b - a)^2 (kappa2 = 2), at least ``_ITP_MIN_STEP``, and Project
    onto the ball about the midpoint that keeps the bracket within reach of
    the target width in steps_left more steps (Oliveira & Takahashi, ACM
    TOMS 47(1), 2020).  The projection comes last, so no truncation can
    cost the worst case.
    """
    mid = 0.5 * (a + b)
    radius = max(_ITP_TARGET * 2.0**steps_left - 0.5 * (b - a), 0.0)
    delta = max(kappa1 * (b - a) ** 2, _ITP_MIN_STEP)
    x_f = (a * fb - b * fa) / (fb - fa)
    sigma = math.copysign(1.0, mid - x_f)
    x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
    return x_t if abs(x_t - mid) <= radius else mid - sigma * radius


def _lockstep_roots(grid: np.ndarray, values: dict, crossings) -> dict[str, float | None]:
    """First root of each kind's crossing function on grid, or None.

    ``values`` maps each kind to its crossing values on the grid.  Every
    first sign change is refined by ITP (``_itp_point``, with
    kappa1 = 0.2 / (b - a) of the grid bracket and n0 = 1) until its bracket
    is at most ``BISECTION_WIDTH`` wide (or holds no float between its
    ends), and the root is the bracket midpoint, or a point where the
    crossing is exactly zero.  A bracket takes at most one call more than
    bisection would.  All brackets step in lockstep: ``crossings(kinds,
    gammas)`` returns the value of kind i at coupling i for one point per
    open bracket, and each bracket steps exactly as it would alone.
    """
    roots: dict[str, float | None] = dict.fromkeys(values)
    # kind -> (a, b, f(a), f(b), kappa1, steps left), the arguments of _itp_point
    brackets: dict[str, tuple[float, float, float, float, float, int]] = {}
    for which, v in values.items():
        for i in range(grid.size - 1):
            if v[i] == 0.0:
                roots[which] = float(grid[i])
                break
            if (v[i] < 0.0) != (v[i + 1] < 0.0):
                a, b = float(grid[i]), float(grid[i + 1])
                brackets[which] = (a, b, float(v[i]), float(v[i + 1]), 0.2 / (b - a), _halvings(b - a) + 1)
                break
        else:
            if v[-1] == 0.0:
                roots[which] = float(grid[-1])
    while True:
        # a bracket also closes when no float lies inside it: above 8192 one
        # ulp of a coupling is wider than BISECTION_WIDTH
        closed = [
            k
            for k, (a, b, *_) in brackets.items()
            if not (b - a > BISECTION_WIDTH and a < 0.5 * (a + b) < b)
        ]
        for which in closed:
            a, b, *_ = brackets.pop(which)
            roots[which] = 0.5 * (a + b)
        if not brackets:
            return roots
        kinds = list(brackets)
        points = [_itp_point(*brackets[k]) for k in kinds]
        for which, x, fx in zip(kinds, points, crossings(kinds, points)):
            a, b, fa, fb, kappa1, steps_left = brackets[which]
            if fx == 0.0:
                del brackets[which]
                roots[which] = x
            elif (fa < 0.0) != (fx < 0.0):
                brackets[which] = (a, x, fa, fx, kappa1, steps_left - 1)
            else:
                brackets[which] = (x, b, fx, fb, kappa1, steps_left - 1)


def _require_range(gamma_range: tuple[float, float]) -> None:
    lo, hi = gamma_range
    if not (_positive_finite(lo) and _positive_finite(hi) and lo < hi):
        raise ValueError(f"gamma_range {gamma_range} must satisfy 0 < lo < hi < inf")


def find_gamma_critical(
    solver: SecularSolver,
    which: str,
    gamma_range: tuple[float, float] = GAMMA_RANGE_DEFAULT,
    *,
    grid_points: int = SCAN_POINTS_DEFAULT,
) -> float:
    """Smallest root of the chosen crossing function in gamma_range.

    The ``which`` field of ``gamma_critical_points`` on the same solver,
    range and grid.  Raises NoRootInRange if the scanned values never
    change sign.
    """
    _crossing(which)  # an unknown kind raises here, before any solve
    root = getattr(gamma_critical_points(solver, gamma_range, grid_points=grid_points), f"gamma_{which}")
    if root is None:
        raise NoRootInRange("no sign change of the '{}' crossing in [{}, {}]".format(which, *gamma_range))
    return root


def gamma_critical_points(
    solver: SecularSolver,
    gamma_range: tuple[float, float] = GAMMA_RANGE_DEFAULT,
    *,
    grid_points: int = SCAN_POINTS_DEFAULT,
) -> GammaCriticalPoints:
    """All three critical couplings from one grid scan on the solver.

    The package's one coupling scan: the low pair is solved on a uniform grid
    over gamma_range, and ``_lockstep_roots`` refines the first sign change of
    the s, w and E crossings together.  Each bracket steps as it would alone,
    and ``solve_many`` gives each coupling the bits of a lone solve, so each
    root is bit for bit the one a scan of its kind alone would find.
    """
    _require_range(gamma_range)
    _require_count("grid_points", grid_points, 2)

    def crossings(kinds, gammas):
        return [_crossing(k)(spec.low_pair()) for k, spec in zip(kinds, solver.solve_many(gammas))]

    grid = np.linspace(*gamma_range, grid_points)
    reports = [spec.low_pair() for spec in solver.solve_many(grid)]
    roots = _lockstep_roots(grid, {k: np.array([_crossing(k)(r) for r in reports]) for k in "swE"}, crossings)
    return GammaCriticalPoints(gamma_s=roots["s"], gamma_w=roots["w"], gamma_E=roots["E"])


@dataclass(frozen=True)
class SearchOptimum:
    """Earliest-time, smallest-coupling absolute maximum of the success probability.

    ``truncated`` records whether any time window was capped below the graph
    volume by 3 pi / |E1 - E0|.
    """

    t_opt: float
    gamma_opt: float
    pi_max: float
    e0: float
    e1: float
    gamma_range: tuple[float, float]
    gamma_points: int
    t_points: int
    truncated: bool
    refined_gamma_step: float


def _optimum_window(gamma_e: float | None, fallback: tuple[float, float]) -> tuple[float, float]:
    """The optimizer's coupling window: +-20% around gamma_E, or fallback when there is no gamma_E."""
    return (0.8 * gamma_e, 1.2 * gamma_e) if gamma_e is not None else fallback


def _time_ceiling(volume: float, gap: float) -> float:
    """The end of a coupling's time window: min(volume, 3 pi / gap) for the gap |E1 - E0|."""
    return min(volume, 3.0 * np.pi / max(gap, 1e-300))


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_lockstep(
    f, a: np.ndarray, b: np.ndarray, tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximum of f_i on [a_i, b_i] for every i, all in lockstep.

    ``f(rows, x)`` returns f_rows[j](x[j]) for one point per open bracket.
    Bracket i closes once its inner points are within tol_i, and each
    narrows through exactly the IEEE operations of a lone golden section, so
    each (x_i, f_i(x_i)) returned is the one that section would find.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    rows = np.arange(a.size)
    fc, fd = f(rows, c), f(rows, d)
    live = rows[d - c > tol]
    while live.size:
        al, bl, cl, dl, fcl, fdl = a[live], b[live], c[live], d[live], fc[live], fd[live]
        # f(c) > f(d): the maximum lies in [a, d], and c becomes its upper
        # inner point; otherwise in [c, b], and d becomes its lower one
        left = fcl > fdl
        al, bl = np.where(left, al, cl), np.where(left, dl, bl)
        x = np.where(left, bl - _INV_PHI * (bl - al), al + _INV_PHI * (bl - al))
        fx = f(live, x)
        a[live], b[live] = al, bl
        c[live], fc[live] = np.where(left, x, dl), np.where(left, fx, fdl)
        d[live], fd[live] = np.where(left, cl, x), np.where(left, fcl, fx)
        live = live[d[live] - c[live] > tol[live]]
    upper = fc > fd
    return np.where(upper, c, d), np.where(upper, fc, fd)


def _peak_objective(energies: np.ndarray, amps: np.ndarray):
    """f(rows, t) = pi(t[j]) of coupling rows[j], for spectra stacked one per row.

    Each value is bit for bit the one-row call f([i], [t]) of that coupling,
    so a peak refines to the same t whatever grid it shares: the stacked
    vector products and hypot round per row.  np.abs, einsum or a sum over
    the last axis each move the last bit, and at a flat peak one bit of pi
    moves the maximizing t by about sqrt(eps).  Against the lone
    abs(np.exp(-1j * t * E) @ amps) ** 2 it agrees to 1 ulp, not bit for
    bit: the vector products are equal, but a scalar ** 2 rounds through
    pow where the array square multiplies.
    """

    def f(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * t[:, None] * energies[rows])
        z = np.matmul(phases[:, None, :], amps[rows][:, :, None])[:, 0, 0]
        return np.hypot(z.real, z.imag) ** 2

    return f


def optimize_search(
    solver: SecularSolver,
    gamma_range: tuple[float, float],
    *,
    gamma_points: int = OPT_GAMMA_POINTS_DEFAULT,
    t_points: int = OPT_T_POINTS_DEFAULT,
) -> SearchOptimum:
    """Locate (t_opt, gamma_opt) maximizing the success probability in gamma_range.

    A coarse gamma grid is scanned over the window; the optimizer runs no
    scan of its own.  Each gamma gets a uniform time grid up to its one
    ceiling, ``_time_ceiling``, plus a golden-section refinement of its best
    peak.  The winning gamma is then re-gridded ``REFINE_DECADES`` times, one
    decade finer each pass.  Among all evaluated points within 1e-9 of the
    maximum, the earliest time and then the smallest coupling win.
    Each grid is solved in one batched secular pass, and its peaks are refined
    in lockstep.  A coupling whose bound (sum |alpha_a|)^2 on pi(t) falls more
    than 1e-9, plus rounding, below the best pi already reached (the pool's,
    or the grid maximum of the grid's coupling with the largest bound) can win
    no tie, and gets no curve.  Raises ValueError for an invalid window or
    count, before any solve.
    """
    _require_count("gamma_points", gamma_points, 1)
    _require_count("t_points", t_points, 2)
    _require_range(gamma_range)
    volume = solver.volume
    lo, hi = gamma_range

    def draw(spec, ceiling: float):
        """The grid peak of one coupling's curve, and the bracket that refines it."""
        times, curve = _grid_curve(spec.energies, spec.amplitudes, ceiling, t_points)
        idx = int(np.nonzero(curve >= curve.max() - TIE_TOL)[0][0])
        dt = times[1] - times[0]
        bracket = (max(0.0, times[idx] - dt), min(ceiling, times[idx] + dt), 1e-10 * max(1.0, ceiling))
        return (float(times[idx]), float(curve[idx])), bracket

    def eval_grid(gammas: np.ndarray, incumbent: float) -> tuple[list, bool]:
        """Pool rows of the couplings that can still win, and whether any window was capped."""
        spectra = solver.solve_many(gammas)
        ceilings = [_time_ceiling(volume, abs(float(s.levels[1]) - float(s.levels[0]))) for s in spectra]
        # pi(t) <= (sum |alpha_a|)^2 at every t, and a computed pi exceeds it
        # by at most its rounding, well within `slack` (sum |alpha_a| <= 1)
        bounds = np.array([np.abs(s.amplitudes).sum() ** 2 for s in spectra])
        slack = 8.0 * (spectra[0].amplitudes.size + 4) * np.finfo(float).eps
        top = int(bounds.argmax())
        drawn = {top: draw(spectra[top], ceilings[top])}
        # a pi below this floor lies more than TIE_TOL under the pool's maximum
        floor = max(drawn[top][0][1], incumbent) - TIE_TOL - slack
        live = [c for c in range(len(spectra)) if c == top or bounds[c] >= floor]
        for c in live:
            if c not in drawn:
                drawn[c] = draw(spectra[c], ceilings[c])
        lo_t, hi_t, tol = np.array([drawn[c][1] for c in live]).T
        t_ref, pi_ref = _golden_lockstep(
            _peak_objective(
                np.stack([spectra[c].energies for c in live]),
                np.stack([spectra[c].amplitudes for c in live]),
            ),
            lo_t,
            hi_t,
            tol,
        )
        rows = []
        for c, t_r, pi_r in zip(live, t_ref, pi_ref):
            (t_grid, pi_grid), spec = drawn[c][0], spectra[c]
            row = (spec.gamma, float(spec.levels[0]), float(spec.levels[1]), ceilings[c] < volume)
            # the grid point stands when the refinement falls below it
            rows.append((t_grid, pi_grid, *row) if pi_r < pi_grid else (float(t_r), float(pi_r), *row))
        return rows, any(c < volume for c in ceilings)

    pool, truncated = eval_grid(np.linspace(lo, hi, gamma_points), -np.inf)
    step = (hi - lo) / (gamma_points - 1) if gamma_points > 1 else hi - lo
    for _ in range(REFINE_DECADES):
        best = _select_optimum(pool)
        center = best[2]
        fine = np.linspace(max(lo, center - step), min(hi, center + step), 21)
        rows, capped = eval_grid(fine, max(r[1] for r in pool))
        pool.extend(rows)
        truncated = truncated or capped
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
        truncated=truncated,
        refined_gamma_step=step,
    )


def _select_optimum(pool):
    pi_max = max(r[1] for r in pool)
    near = [r for r in pool if r[1] >= pi_max - TIE_TOL]
    return min(near, key=lambda r: (r[0], r[2]))


# from |E0 + E1| < 1e-8, two or three Newton steps reach the solver's noise floor
_NEWTON_STEPS = 8


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
    solver: SecularSolver,
    gamma_E: float,
    t_samples: np.ndarray,
) -> DecompositionReport:
    """Decompose pi(t) into its two-level part and higher-state residual.

    Requires a positive finite gamma_E, checked before any solve, with
    |E0 + E1| < 1e-8 there, where both low states must overlap e_w.  The
    coupling is then refined by Newton steps on f = E0 + E1, until f is 0 or
    a step no longer lowers |f|, which makes the pointwise reconstruction
    identity hold to full precision.  By Hellmann-Feynman, dE_a/dgamma =
    <psi_a|Delta|psi_a> = (E_a + |<e_w, psi_a>|^2) / gamma, so each solve's
    low pair holds its own slope f'.  Everything is read off the last step.
    """
    _require_positive("gamma_E", gamma_E)
    gamma = float(gamma_E)
    spec = solver.solve(gamma)
    pair = spec.low_pair()
    f = pair.e0 + pair.e1
    if abs(f) >= 1e-8:
        raise NotAtGammaE(f"E0 + E1 = {f:.3e} at gamma={gamma}; not a symmetric point")
    _require_visible_low_pair(spec)
    for _ in range(_NEWTON_STEPS):
        if f == 0.0:
            break
        slope = (f + pair.w_psi0 + pair.w_psi1) / gamma
        step = solver.solve(gamma - f / slope)
        step_pair = step.low_pair()
        if not abs(step_pair.e0 + step_pair.e1) < abs(f):
            break
        spec, pair = step, step_pair
        gamma, f = spec.gamma, pair.e0 + pair.e1

    alpha = spec.amplitudes
    s0_sq, s1_sq = pair.s_psi0, pair.s_psi1
    w0_sq, w1_sq = pair.w_psi0, pair.w_psi1

    ratio0 = w0_sq / s0_sq
    ratio1 = w1_sq / s1_sq
    ratio_residual = abs(ratio1 - ratio0) / max(ratio0, ratio1)
    if ratio_residual > 1e-8:
        raise NotAtGammaE(
            f"overlap ratio identity fails (residual {ratio_residual:.3e}); "
            "coupling is not at the symmetric point"
        )

    # -(<s,psi_1><e_w,psi_0>) / (<s,psi_0><e_w,psi_1>), free of the states' signs
    phase = -(alpha[1] * w0_sq) / (alpha[0] * w1_sq)
    theta = 0.5 * np.angle(complex(phase))
    if theta < 0.0:
        theta += np.pi

    e0, e1 = pair.e0, pair.e1
    times = np.asarray(t_samples, dtype=float)
    two_level = alpha[0] * np.exp(-1j * e0 * times) + alpha[1] * np.exp(-1j * e1 * times)
    higher = _exp_sum(spec.energies[2:], alpha[2:], times)
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
