"""Weighted-inner-product spectral machinery: symmetrization, eigendata, Green functions.

Operators here are self-adjoint with respect to the measure-weighted inner
product <f, g> = sum conj(f(x)) g(x) mu(x).  Conjugating by diag(sqrt(mu))
turns them into ordinary real symmetric matrices; all eigenwork happens in
those coordinates and is mapped back to vertex functions on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateLowStates,
    EigenvalueOnSpectrum,
    NonSymmetrizable,
    PoleProximity,
)
from .graphs import Laplacian

SYMMETRY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10
POLE_TOL = 1e-12


@dataclass(frozen=True)
class SearchHamiltonian:
    """Search generator: gamma * Laplacian minus the rank-one target projector.

    The oracle projects onto e_w = delta_w / sqrt(mu(w)); in vertex
    coordinates it is simply the matrix unit at (w, w).
    """

    gamma: float
    target: int
    laplacian: Laplacian

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError(f"gamma={self.gamma} must be positive")
        if not (0 <= self.target < self.laplacian.graph.n):
            raise ValueError(f"target vertex {self.target} out of range")

    def matrix(self) -> np.ndarray:
        h = self.gamma * self.laplacian.matrix.copy()
        h[self.target, self.target] -= 1.0
        return h


@dataclass(frozen=True)
class Symmetrized:
    """Real symmetric coordinates of a self-adjoint operator, with the back-map."""

    matrix: np.ndarray
    sqrt_mu: np.ndarray

    def to_vertex(self, v: np.ndarray) -> np.ndarray:
        """Map symmetric-coordinate vectors (or column stacks) to vertex functions."""
        if v.ndim == 1:
            return v / self.sqrt_mu
        return v / self.sqrt_mu[:, None]


def symmetrize(op: Laplacian | SearchHamiltonian) -> Symmetrized:
    """Conjugate op by diag(sqrt(mu)), returning a genuinely symmetric matrix.

    Raises NonSymmetrizable when the conjugated matrix is not symmetric, which
    signals a detailed-balance violation upstream.
    """
    if isinstance(op, SearchHamiltonian):
        a = op.matrix()
        mu = op.laplacian.measure.mu
    else:
        a = op.matrix
        mu = op.measure.mu
    sqrt_mu = np.sqrt(mu)
    s = (sqrt_mu[:, None] * a) / sqrt_mu[None, :]
    defect = np.linalg.norm(s - s.T)
    if defect > SYMMETRY_TOL * max(np.linalg.norm(s), 1e-300):
        raise NonSymmetrizable(
            f"symmetrization defect {defect:.3e}; operator is not self-adjoint "
            "under the supplied measure"
        )
    return Symmetrized(0.5 * (s + s.T), sqrt_mu)


@dataclass(eq=False)
class SpectralData:
    """Full eigendecomposition in the weighted inner product.

    ``eigenvalues`` ascend; column a of ``eigenvectors`` is the vertex
    function of state a, orthonormal under mu.  ``sym_vectors`` holds the same
    states in symmetric coordinates (orthonormal under the plain dot product).
    The values are treated as immutable after construction.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sym_vectors: np.ndarray
    sqrt_mu: np.ndarray
    sym_matrix: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def residual_norm(self) -> float:
        """Largest 2-norm of (H - E_a) psi_a over all states (weighted norm)."""
        r = self.sym_matrix @ self.sym_vectors - self.sym_vectors * self.eigenvalues
        return float(np.sqrt((r * r).sum(axis=0).max()))

    def validate(self) -> "SpectralData":
        gram = self.sym_vectors.T @ self.sym_vectors
        ortho_defect = np.abs(gram - np.eye(self.n)).max()
        if ortho_defect > ORTHONORMALITY_TOL:
            raise ConvergenceFailure(f"orthonormality defect {ortho_defect:.3e}")
        scale = max(self.spectral_range, 1e-300)
        if self.residual_norm > RESIDUAL_TOL * scale:
            raise ConvergenceFailure(
                f"residual {self.residual_norm:.3e} exceeds {RESIDUAL_TOL} x range"
            )
        return self


def eigendecompose(sym: Symmetrized, *, check: bool = True) -> SpectralData:
    """Eigendecompose a symmetrized operator, fixing phases deterministically.

    The sign of each eigenvector is chosen so its largest-magnitude vertex
    component is positive (lowest index on ties).  With ``check`` the
    orthonormality and residual contracts are verified.
    """
    defect = np.abs(sym.matrix - sym.matrix.T).max()
    if defect > SYMMETRY_TOL * max(np.abs(sym.matrix).max(), 1e-300):
        raise NonSymmetrizable(f"input matrix asymmetry {defect:.3e}")
    try:
        evals, vecs = np.linalg.eigh(sym.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    vertex = sym.to_vertex(vecs)
    flip = np.sign(vertex[np.abs(vertex).argmax(axis=0), np.arange(evals.size)])
    flip[flip == 0.0] = 1.0
    vecs = vecs * flip
    vertex = vertex * flip
    data = SpectralData(evals, vertex, vecs, sym.sqrt_mu, sym.matrix)
    if check:
        data.validate()
    return data


def decompose(op: Laplacian | SearchHamiltonian, *, check: bool = True) -> SpectralData:
    """Symmetrize then eigendecompose in one step."""
    return eigendecompose(symmetrize(op), check=check)


def weighted_inner(f: np.ndarray, g: np.ndarray, mu: np.ndarray) -> complex | float:
    return (np.conj(f) * g * mu).sum()


def ground_state(lap: Laplacian) -> np.ndarray:
    """Uniform vertex function normalized to 1 in the weighted inner product."""
    return np.full(lap.graph.n, 1.0 / np.sqrt(lap.measure.volume))


def _ground_sym(sqrt_mu: np.ndarray) -> np.ndarray:
    # symmetric coordinates of the uniform ground state
    return sqrt_mu / np.sqrt((sqrt_mu**2).sum())


@dataclass(frozen=True)
class GreenEvaluation:
    """Diagonal resolvent matrix element of the scaled Laplacian at the target."""

    z: float
    value: float
    derivative: float


def _target_weights(
    sd: SpectralData, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared overlaps of e_w with the eigenspaces of sd, grouped by eigenvalue.

    Returns the eigenvalue of each group, its weight and its multiplicity.
    """
    a2 = sd.sym_vectors[w, :] ** 2
    scale = max(sd.spectral_range, 1.0)
    lams: list[float] = []
    weights: list[float] = []
    counts: list[int] = []
    i = 0
    evals = sd.eigenvalues
    while i < evals.size:
        j = i
        while j + 1 < evals.size and evals[j + 1] - evals[i] <= 1e-10 * scale:
            j += 1
        lams.append(float(evals[i : j + 1].mean()))
        weights.append(float(a2[i : j + 1].sum()))
        counts.append(j + 1 - i)
        i = j + 1
    return np.array(lams), np.array(weights), np.array(counts)


def green(
    gamma: float,
    lap: Laplacian,
    w: int,
    z: float,
    *,
    delta_spectral: SpectralData | None = None,
) -> GreenEvaluation:
    """Green function G(z) = <e_w, (gamma Delta - z)^{-1} e_w> and its z-derivative.

    Both are evaluated through the spectral sums over the Laplacian
    eigenspaces.  Raises PoleProximity when z is closer to the scaled spectrum
    than 1e-12 times its width.
    """
    sd = delta_spectral if delta_spectral is not None else decompose(lap)
    lams, a2, _ = _target_weights(sd, w)
    poles = gamma * lams
    span = max(gamma * sd.spectral_range, 1e-300)
    gap = np.abs(poles - z).min()
    if gap < POLE_TOL * span:
        raise PoleProximity(f"z={z} is within {gap:.3e} of the spectrum of gamma*Delta")
    value = float((a2 / (poles - z)).sum())
    derivative = float((a2 / (poles - z) ** 2).sum())
    return GreenEvaluation(z=z, value=value, derivative=derivative)


@dataclass(frozen=True)
class OverlapReport:
    """Energies of the two lowest states and their squared overlaps with s and e_w."""

    e0: float
    e1: float
    s_psi0: float
    w_psi0: float
    s_psi1: float
    w_psi1: float


def _overlap_report(
    evals: np.ndarray, vecs: np.ndarray, s_sym: np.ndarray, w: int
) -> OverlapReport:
    """Report of the two lowest eigenpairs; ``vecs`` columns are symmetric coordinates."""
    s0 = float(s_sym @ vecs[:, 0])
    s1 = float(s_sym @ vecs[:, 1])
    return OverlapReport(
        e0=float(evals[0]),
        e1=float(evals[1]),
        s_psi0=s0**2,
        w_psi0=float(vecs[w, 0]) ** 2,
        s_psi1=s1**2,
        w_psi1=float(vecs[w, 1]) ** 2,
    )


# Crossing functions of an OverlapReport; each critical coupling is a root of one.
_CROSSINGS = {
    "s": lambda r: r.s_psi0 - r.s_psi1,
    "w": lambda r: r.w_psi0 - r.w_psi1,
    "E": lambda r: r.e0 + r.e1,
}


def _crossing(which: str):
    """The crossing function of an OverlapReport for kind 's', 'w' or 'E'."""
    combine = _CROSSINGS.get(which)
    if combine is None:
        raise ValueError(f"unknown crossing kind {which!r}; expected 's', 'w' or 'E'")
    return combine


def _require_simple_low_states(evals: np.ndarray, scale: float) -> None:
    thr = DEGENERACY_TOL * max(scale, 1e-300)
    if evals.size < 2 or evals[1] - evals[0] <= thr:
        raise DegenerateLowStates(
            f"ground-state gap {evals[1] - evals[0]:.3e} below threshold {thr:.3e}"
        )
    if evals.size > 2 and evals[2] - evals[1] <= thr:
        raise DegenerateLowStates(
            f"first-excited gap {evals[2] - evals[1]:.3e} below threshold {thr:.3e}"
        )


def overlaps_direct(
    h: SearchHamiltonian, *, spectral: SpectralData | None = None
) -> OverlapReport:
    """Overlap probabilities straight from the eigenvectors of the Hamiltonian."""
    sd = spectral if spectral is not None else decompose(h)
    _require_simple_low_states(sd.eigenvalues, sd.spectral_range)
    return _overlap_report(sd.eigenvalues, sd.sym_vectors, _ground_sym(sd.sqrt_mu), h.target)


def overlaps_via_green(
    h: SearchHamiltonian,
    *,
    delta_spectral: SpectralData | None = None,
    hamiltonian_spectral: SpectralData | None = None,
) -> OverlapReport:
    """Overlap probabilities through the Green-function derivative.

    Uses |<e_w, psi_a>|^2 = 1 / G'(E_a) and
    |<s, psi_a>|^2 = mu(w) / (vol * E_a^2 * G'(E_a)), valid whenever E_a lies
    off the spectrum of gamma * Delta.
    """
    lap = h.laplacian
    dsd = delta_spectral if delta_spectral is not None else decompose(lap)
    hsd = hamiltonian_spectral if hamiltonian_spectral is not None else decompose(h)
    _require_simple_low_states(hsd.eigenvalues, hsd.spectral_range)
    poles = h.gamma * dsd.eigenvalues
    span = max(h.gamma * dsd.spectral_range, 1e-300)
    mu_w = lap.measure.mu[h.target]
    vol = lap.measure.volume
    values = []
    for a in (0, 1):
        e_a = float(hsd.eigenvalues[a])
        if np.abs(poles - e_a).min() <= DEGENERACY_TOL * span:
            raise EigenvalueOnSpectrum(
                f"E_{a}={e_a} lies on the spectrum of gamma*Delta"
            )
        gprime = green(h.gamma, lap, h.target, e_a, delta_spectral=dsd).derivative
        w_sq = 1.0 / gprime
        s_sq = float(mu_w) / (vol * e_a**2 * gprime)
        values.append((e_a, float(s_sq), float(w_sq)))
    (e0, s0, w0), (e1, s1, w1) = values
    return OverlapReport(e0=e0, e1=e1, s_psi0=s0, w_psi0=w0, s_psi1=s1, w_psi1=w1)


# Target weight at or below which an eigenspace of Delta counts as orthogonal
# to e_w.  A component that vanishes comes out of eigh at rounding level, about
# 1e-16, so its square sits far below this; deflating a true weight this small
# moves the roots and amplitudes by about the weight itself.
DEFLATION_TOL = 1e-24
# Both completeness identities of a secular solve hold to this absolute tolerance.
IDENTITY_TOL = 1e-10
_SECULAR_MAX_ITER = 200
# Cells of one (couplings x roots x poles) array in a batched secular solve;
# bounds the solve's working memory to a few such arrays of 8 bytes a cell.
_BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SecularSpectrum:
    """Spectrum of gamma * Delta - |e_w><e_w| from the secular equation G(E) = 1.

    A state is visible when it overlaps e_w, and then its energy is a root of
    G.  ``energies`` ascend over the visible states, with their squared
    overlaps |<e_w, psi>|^2 = 1/G'(E) and |<s, psi>|^2 = mu(w)/(vol E^2 G'(E)),
    and the amplitudes <e_w, psi><psi, s> = -sqrt(mu(w)/vol)/(E G'(E)) whose
    exponential sum gives pi(t).  Every other state is an eigenvector of Delta
    that vanishes at w: it keeps the energy gamma * lambda and overlaps neither
    e_w nor s.  ``levels`` holds the (up to) three lowest energies of the whole
    spectrum, and ``level_index`` the position of each in ``energies``, or -1
    for an invisible state.
    """

    gamma: float
    energies: np.ndarray
    w_overlaps: np.ndarray
    s_overlaps: np.ndarray
    amplitudes: np.ndarray
    levels: np.ndarray
    level_index: np.ndarray
    degeneracy_threshold: float

    def low_pair(self) -> OverlapReport:
        """Report of the two lowest states; raises DegenerateLowStates when they are not simple."""
        lv, thr = self.levels, self.degeneracy_threshold
        if lv[1] - lv[0] <= thr or (lv.size > 2 and lv[2] - lv[1] <= thr):
            raise DegenerateLowStates(f"near-degenerate low states at gamma={self.gamma}")
        (s0, w0), (s1, w1) = (
            (0.0, 0.0) if i < 0 else (float(self.s_overlaps[i]), float(self.w_overlaps[i]))
            for i in self.level_index[:2]
        )
        return OverlapReport(
            e0=float(lv[0]), e1=float(lv[1]), s_psi0=s0, w_psi0=w0, s_psi1=s1, w_psi1=w1
        )


class SecularSolver:
    """Every coupling's spectrum of gamma * Delta - |e_w><e_w| from one decomposition of Delta.

    The Hamiltonian is a rank-one change of gamma * Delta, so its visible
    energies are the roots of G(E) = sum_k a_k / (gamma lambda_k - E) = 1 over
    the distinct eigenvalues lambda_k of Delta with target weights a_k: one
    root in [-1, 0) and one between each pair of adjacent poles.  Each root is
    solved in its offset from the nearer pole (Bunch, Nielsen & Sorensen
    1978; LAPACK dlaed4), all intervals at once, by Newton steps on
    -tau (G - 1) safeguarded by bisection.
    """

    def __init__(self, lap: Laplacian, w: int):
        sd = decompose(lap)
        lams, weights, counts = _target_weights(sd, w)
        lams[0] = 0.0  # the constants span the kernel of I - P exactly
        visible = weights > DEFLATION_TOL
        self.lams = lams[visible]
        self.weights = weights[visible]
        # lam_gaps[k, j] = lambda_j - lambda_k between visible poles
        self._lam_gaps = self.lams[None, :] - self.lams[:, None]
        # the three lowest eigenvalues, with multiplicity, whose eigenvectors
        # vanish at w: each eigenspace less its one visible direction
        self._invisible = np.repeat(lams, counts - visible)[:3]
        self.target = w
        self.volume = lap.measure.volume
        self.s_w2 = float(lap.measure.mu[w] / lap.measure.volume)
        self.n = sd.n
        # row sums of |gamma * S - e_w e_w^T| are gamma * rows off the target row
        rows = np.abs(sd.sym_matrix).sum(axis=1)
        self._diag_w = float(sd.sym_matrix[w, w])
        self._row_w = float(rows[w]) - abs(self._diag_w)
        self._row_max = float(np.delete(rows, w).max(initial=0.0))

    def _threshold(self, gamma: float) -> float:
        """DEGENERACY_TOL times the infinity norm of the symmetrized Hamiltonian."""
        norm = max(gamma * self._row_max, gamma * self._row_w + abs(gamma * self._diag_w - 1.0))
        return DEGENERACY_TOL * norm

    def solve(self, gamma: float) -> SecularSpectrum:
        """All roots of G(E) = 1 at this coupling; see ``solve_many``."""
        return self.solve_many([gamma])[0]

    def solve_many(self, gammas) -> list[SecularSpectrum]:
        """All roots of G(E) = 1 at each coupling, with their overlaps and amplitudes.

        The couplings are solved together, ``_BATCH_ELEMENTS`` array cells at
        a time, and each comes out bit for bit as it would alone.  Raises
        ConvergenceFailure, naming the first failing coupling in input order,
        when the iteration stalls or when the completeness identities
        sum 1/G'(E_a) = 1 and (sum alpha_a)^2 = mu(w)/vol fail, which is how a
        missed root shows.  Raises ValueError, naming the first offender, for
        a coupling that is not positive and finite, before any iteration.
        """
        gammas = np.asarray(gammas, dtype=float).reshape(-1)
        bad = ~(np.isfinite(gammas) & (gammas > 0.0))
        if bad.any():
            raise ValueError(f"gamma={float(gammas[bad.argmax()])} must be positive and finite")
        step = max(1, _BATCH_ELEMENTS // self.weights.size**2)
        spectra: list[SecularSpectrum] = []
        for i in range(0, gammas.size, step):
            spectra.extend(self._solve_batch(gammas[i : i + step]))
        return spectra

    def _solve_batch(self, gammas: np.ndarray) -> list[SecularSpectrum]:
        # Arrays run (couplings, roots, poles); every sum runs along the last,
        # contiguous axis, so each coupling sees the arithmetic of a lone solve.
        a = self.weights
        m = a.size
        nb = gammas.size
        batch = np.arange(nb)[:, None]
        gaps = gammas[:, None, None] * self._lam_gaps
        # Root 0 lies in [-1, 0), below pole 0 (gamma * Delta >= 0); root i >= 1
        # between poles i-1 and i, in the half that G at the midpoint picks.  The
        # pole bounding that half is the origin of tau = E - pole.
        k = np.arange(1, m)
        half = 0.5 * gaps[:, k - 1, k]
        g_mid = (a / (gaps[:, k - 1] - half[..., None])).sum(axis=-1)
        left = g_mid >= 1.0
        first = np.zeros((nb, 1))
        origin = np.concatenate([first.astype(int), np.where(left, k - 1, k)], axis=1)
        lo = np.concatenate([first - 2.0, np.where(left, 0.0, -half)], axis=1)
        hi = np.concatenate([first, np.where(left, half, 0.0)], axis=1)
        rows = np.arange(m)
        rel = gaps[batch, origin]  # rel[c, i, j] = pole j minus the origin pole of root i
        a_o = a[origin]
        # Each root starts at the root of a quadratic q2 tau^2 + q1 tau + q0 = 0
        # modelling tau (G - 1).  Root 0: the origin pole, and the other poles'
        # share of G to first order at it.  Root i: both poles of its interval,
        # at distance span apart, and the other poles' share at the midpoint.
        partner = np.where(left, k, k - 1)
        span = gaps[batch, origin[:, 1:], partner]
        b = 1.0 - g_mid - (a[k - 1] - a[k]) / half
        near = a[1:] / gaps[:, 0, 1:]
        q2 = np.concatenate([(near / gaps[:, 0, 1:]).sum(axis=-1)[:, None], b], axis=1)
        q1 = np.concatenate(
            [near.sum(axis=-1)[:, None] - 1.0, a_o[:, 1:] + a[partner] - b * span], axis=1
        )
        q0 = -a_o * np.concatenate([first + 1.0, span], axis=1)
        eps = np.finfo(float).eps
        with np.errstate(divide="ignore", invalid="ignore"):
            big = -0.5 * (q1 + np.copysign(np.sqrt(np.maximum(q1 * q1 - 4.0 * q2 * q0, 0.0)), q1))
            r1, r2 = big / q2, q0 / big
            tau = np.where(
                (r1 > lo) & (r1 < hi), r1, np.where((r2 > lo) & (r2 < hi), r2, 0.5 * (lo + hi))
            )
            done = np.zeros((nb, m), dtype=bool)
            for _ in range(_SECULAR_MAX_ITER):
                diff = rel - tau[..., None]
                q = a / diff
                q[batch, rows, origin] = 0.0
                r = q.sum(axis=-1) - 1.0
                # f = -tau (G - 1) drops the origin pole: smooth across the root
                f = a_o - tau * r
                # settled once f is within its own rounding error
                settled = np.abs(f) <= 8.0 * eps * (a_o + np.abs(tau) * (np.abs(q).sum(axis=-1) + 1.0))
                below = f * tau > 0.0  # G < 1: the root lies above tau
                lo = np.where(below, tau, lo)
                hi = np.where(below, hi, tau)
                step = tau + f / (r + tau * (q / diff).sum(axis=-1))
                new = np.where(
                    settled, tau, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
                )
                converged = settled | (np.abs(new - tau) <= 4.0 * eps * np.abs(new))
                tau = np.where(done, tau, new)
                done |= converged
                if done.all():
                    break
            gprime = (a / (rel - tau[..., None]) ** 2).sum(axis=-1)
            energies = gammas[:, None] * self.lams[origin] + tau
            w_sq = 1.0 / gprime
            amps = -np.sqrt(self.s_w2) / (energies * gprime)
            w_defect = np.abs(w_sq.sum(axis=-1) - 1.0)
            s_defect = np.abs(amps.sum(axis=-1) ** 2 - self.s_w2)
        stalled = ~done.all(axis=1)
        failed = stalled | ~((w_defect <= IDENTITY_TOL) & (s_defect <= IDENTITY_TOL))
        if failed.any():
            j = int(failed.argmax())
            gamma = float(gammas[j])
            if stalled[j]:
                raise ConvergenceFailure(f"secular iteration did not converge at gamma={gamma}")
            raise ConvergenceFailure(
                f"secular solve at gamma={gamma} misses weight: "
                f"|sum 1/G' - 1| = {w_defect[j]:.3e}, |(sum alpha)^2 - mu/vol| = {s_defect[j]:.3e}"
            )
        s_sq = self.s_w2 / (energies**2 * gprime)
        candidates = np.concatenate([energies[:, :3], gammas[:, None] * self._invisible], axis=1)
        index = np.concatenate([np.arange(min(m, 3)), np.full(self._invisible.size, -1)])
        order = np.argsort(candidates, axis=1, kind="stable")[:, : min(self.n, 3)]
        levels = np.take_along_axis(candidates, order, axis=1)
        return [
            SecularSpectrum(
                gamma=float(gammas[c]),
                energies=energies[c],
                w_overlaps=w_sq[c],
                s_overlaps=s_sq[c],
                amplitudes=amps[c],
                levels=levels[c],
                level_index=index[order[c]],
                degeneracy_threshold=self._threshold(float(gammas[c])),
            )
            for c in range(nb)
        ]

    def low_pair(self, gamma: float) -> OverlapReport:
        """Energies and squared overlaps of the two lowest states, guarding degeneracy."""
        return self.solve(gamma).low_pair()

    def crossing_function(self, which: str):
        combine = _crossing(which)
        return lambda gamma: combine(self.low_pair(gamma))


@dataclass(frozen=True)
class TheoremBounds:
    """Both eigenvalue-volume inequalities with their computed epsilons."""

    eps0: float
    eps1: float
    lhs0: float
    lhs1: float
    rhs0: float
    rhs1: float
    first_holds: bool
    second_holds: bool


def theorem_bound_report(
    h: SearchHamiltonian, *, spectral: SpectralData | None = None
) -> TheoremBounds:
    """Check |E_a^2 - mu(w)/vol| against the overlap-gap bounds.

    The ground-state inequality is |E_0^2 - mu(w)/vol| <= eps0 with
    eps0 = | |<s,psi_0>|^2 - |<e_w,psi_0>|^2 |; the excited-state bound
    carries the extra prefactor built from the two s-overlaps.
    """
    rep = overlaps_direct(h, spectral=spectral)
    mu_w = h.laplacian.measure.mu[h.target]
    ratio = mu_w / h.laplacian.measure.volume
    eps0 = abs(rep.s_psi0 - rep.w_psi0)
    eps1 = abs(rep.s_psi1 - rep.w_psi1)
    lhs0 = abs(rep.e0**2 - ratio)
    lhs1 = abs(rep.e1**2 - ratio)
    rhs0 = eps0
    prefactor = 1.0 + ratio * abs(rep.s_psi1 - rep.s_psi0) / (rep.s_psi1 * rep.s_psi0)
    rhs1 = prefactor * eps1
    slack = 1e-12
    return TheoremBounds(
        eps0=eps0,
        eps1=eps1,
        lhs0=lhs0,
        lhs1=lhs1,
        rhs0=rhs0,
        rhs1=rhs1,
        first_holds=lhs0 <= rhs0 + slack,
        second_holds=lhs1 <= rhs1 + slack,
    )
