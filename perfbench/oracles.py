"""Independent numerics for the biased-path lattice, used to check CLI outputs.

Nothing here imports qwsearch.  The d-dimensional lattice is rebuilt from
its 4-vertex axis by Kronecker sums, solved with SciPy's dense ``eigh`` and
``expm``, and the measure and volume come from their closed forms:
mu = (1, 1/(1-p), 1/(1-p), 1) per axis, so the axis volume is 2 + 2/(1-p).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


def axis_laplacian(p: float) -> np.ndarray:
    """I - P for the reflecting 4-vertex path with interior bias p."""
    P = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [1.0 - p, 0.0, p, 0.0],
        [0.0, p, 0.0, 1.0 - p],
        [0.0, 0.0, 1.0, 0.0],
    ])
    return np.eye(4) - P


def axis_measure(p: float) -> np.ndarray:
    return np.array([1.0, 1.0 / (1.0 - p), 1.0 / (1.0 - p), 1.0])


def lattice_volume(p: float, d: int) -> float:
    return (2.0 + 2.0 / (1.0 - p)) ** d


def _kron_sum(axis: np.ndarray, d: int) -> np.ndarray:
    """(1/d) sum_k I x .. x axis (k-th factor) x .. x I."""
    eye = np.eye(axis.shape[0])
    total = np.zeros((axis.shape[0] ** d,) * 2)
    for k in range(d):
        term = np.ones((1, 1))
        for j in range(d):
            term = np.kron(term, axis if j == k else eye)
        total += term
    return total / d


def lattice_laplacian(p: float, d: int) -> np.ndarray:
    """Vertex-coordinate Laplacian of the d-fold product, as the CLI exports it."""
    return _kron_sum(axis_laplacian(p), d)


def _axis_symmetric(p: float) -> np.ndarray:
    r = np.sqrt(axis_measure(p))
    s = r[:, None] * axis_laplacian(p) / r[None, :]
    return 0.5 * (s + s.T)


def _sqrt_mu(p: float, d: int) -> np.ndarray:
    r = np.ones(1)
    for _ in range(d):
        r = np.kron(r, np.sqrt(axis_measure(p)))
    return r


def kronecker_spectrum(p: float, d: int) -> np.ndarray:
    """Sorted Laplacian spectrum: all means (1/d) sum_i lambda_{k_i} of the axis eigenvalues."""
    lam = np.linalg.eigvalsh(_axis_symmetric(p))
    total = np.zeros(1)
    for _ in range(d):
        total = np.add.outer(total, lam).ravel()
    return np.sort(total / d)


class Lattice:
    """Symmetrized search Hamiltonian gamma * Delta - |e_w><e_w| for target w."""

    def __init__(self, p: float, d: int, w: int = 0):
        self.sym = _kron_sum(_axis_symmetric(p), d)
        root = _sqrt_mu(p, d)
        self.s = root / np.linalg.norm(root)
        self.w = w

    def hamiltonian(self, gamma: float) -> np.ndarray:
        h = gamma * self.sym
        h[self.w, self.w] -= 1.0
        return h

    def eigen(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        return sla.eigh(self.hamiltonian(gamma))

    def crossing(self, which: str, gamma: float) -> float:
        """s: |<s,psi0>|^2 - |<s,psi1>|^2; w: the same for e_w; E: E0 + E1."""
        evals, vecs = sla.eigh(self.hamiltonian(gamma), subset_by_index=[0, 1])
        if which == "E":
            return float(evals[0] + evals[1])
        probe = self.s if which == "s" else np.eye(len(self.s))[self.w]
        a = probe @ vecs
        return float(a[0] ** 2 - a[1] ** 2)

    def success_curve(self, gamma: float, times: np.ndarray) -> np.ndarray:
        evals, vecs = self.eigen(gamma)
        amps = vecs[self.w, :] * (vecs.T @ self.s)
        return np.abs(np.exp(-1j * np.outer(times, evals)) @ amps) ** 2

    def success_expm(self, gamma: float, t: float) -> float:
        u = sla.expm(-1j * t * self.hamiltonian(gamma)) @ self.s
        return float(abs(u[self.w]) ** 2)

    def gamma_e(self, lo: float = 0.05, hi: float = 3.0, points: int = 60) -> float | None:
        """First sign change of E0 + E1 on a grid, bisected to 1e-10."""
        grid = np.linspace(lo, hi, points)
        values = [self.crossing("E", g) for g in grid]
        for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
            if (fa < 0.0) != (fb < 0.0):
                while b - a > 1e-10:
                    mid = 0.5 * (a + b)
                    fm = self.crossing("E", mid)
                    if (fa < 0.0) != (fm < 0.0):
                        b = mid
                    else:
                        a, fa = mid, fm
                return float(0.5 * (a + b))
        return None

    def t_ceiling(self, gamma: float, volume: float) -> float:
        """The optimizer's time window: min(volume, 3 pi / (E1 - E0))."""
        evals = sla.eigh(self.hamiltonian(gamma), subset_by_index=[0, 1], eigvals_only=True)
        return min(volume, 3.0 * np.pi / max(evals[1] - evals[0], 1e-300))
