"""Dense n x n oracles of the search Hamiltonian gamma * Delta - |e_w><e_w|.

The package computes every quantity of the search from the secular solver,
with no n x n decomposition of the Hamiltonian.  The routes here form the
Hamiltonian as a dense matrix and take its full eigendecomposition with the
package's own ``eigendecompose``, so the tests can check each secular result
against an independent one: the low-pair overlaps, the evolved state and the
success curve pi(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qwsearch.errors import DegenerateLowStates, NonSymmetrizable
from qwsearch.graphs import Laplacian, _require_positive
from qwsearch.search import _exp_sum
from qwsearch.spectral import (
    DEGENERACY_TOL,
    SYMMETRY_TOL,
    OverlapReport,
    SpectralData,
    Symmetrized,
    _ground_sym,
    _overlap_report,
    eigendecompose,
)


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
        _require_positive("gamma", self.gamma)
        if not (0 <= self.target < self.laplacian.graph.n):
            raise ValueError(f"target vertex {self.target} out of range")

    def matrix(self) -> np.ndarray:
        h = self.gamma * self.laplacian.matrix
        h[self.target, self.target] -= 1.0
        return h


def symmetrize_hamiltonian(h: SearchHamiltonian) -> Symmetrized:
    """Conjugate h by diag(sqrt(mu)), as ``qwsearch.spectral.symmetrize`` does a Laplacian.

    Raises NonSymmetrizable when the conjugated matrix is not symmetric.
    """
    a, mu = h.matrix(), h.laplacian.measure.mu
    sqrt_mu = np.sqrt(mu)
    s = (sqrt_mu[:, None] * a) / sqrt_mu[None, :]
    defect = np.linalg.norm(s - s.T)
    if defect > SYMMETRY_TOL * max(np.linalg.norm(s), 1e-300):
        raise NonSymmetrizable(
            f"symmetrization defect {defect:.3e}; operator is not self-adjoint "
            "under the supplied measure"
        )
    return Symmetrized(0.5 * (s + s.T), sqrt_mu)


def decompose_hamiltonian(h: SearchHamiltonian) -> SpectralData:
    """Symmetrize then eigendecompose h in one step."""
    return eigendecompose(symmetrize_hamiltonian(h))


def weighted_inner(f: np.ndarray, g: np.ndarray, mu: np.ndarray) -> complex | float:
    return (np.conj(f) * g * mu).sum()


def ground_state(lap: Laplacian) -> np.ndarray:
    """Uniform vertex function normalized to 1 in the weighted inner product."""
    return np.full(lap.graph.n, 1.0 / np.sqrt(lap.measure.volume))


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
    sd = spectral if spectral is not None else decompose_hamiltonian(h)
    _require_simple_low_states(sd.eigenvalues, sd.spectral_range)
    return _overlap_report(sd.eigenvalues, sd.sym_vectors, _ground_sym(sd.sqrt_mu), h.target)


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
    sd = spectral if spectral is not None else decompose_hamiltonian(h)
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
    sd = spectral if spectral is not None else decompose_hamiltonian(h)
    amps = _target_amplitudes(sd, h.target)
    return np.abs(_exp_sum(sd.eigenvalues, amps, np.asarray(times, dtype=float))) ** 2


def _target_amplitudes(sd: SpectralData, w: int) -> np.ndarray:
    # per-state product <e_w, psi_a><psi_a, s>; pi(t) = |sum_a amp_a e^{-i E_a t}|^2
    return sd.sym_vectors[w, :] * (sd.sym_vectors.T @ _ground_sym(sd.sqrt_mu))
