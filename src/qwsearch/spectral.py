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


def _target_weights(sd: SpectralData, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared overlaps of e_w with the eigenspaces of sd, grouped by eigenvalue."""
    a2 = sd.sym_vectors[w, :] ** 2
    scale = max(sd.spectral_range, 1.0)
    lams: list[float] = []
    weights: list[float] = []
    i = 0
    evals = sd.eigenvalues
    while i < evals.size:
        j = i
        while j + 1 < evals.size and evals[j + 1] - evals[i] <= 1e-10 * scale:
            j += 1
        lams.append(float(evals[i : j + 1].mean()))
        weights.append(float(a2[i : j + 1].sum()))
        i = j + 1
    return np.array(lams), np.array(weights)


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
    lams, a2 = _target_weights(sd, w)
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
