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
from .graphs import (
    Laplacian,
    TransitionGraph,
    _power_form,
    _power_edges,
    _power_outer,
    _require_positive,
    probabilistic_laplacian,
)

SYMMETRY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10
POLE_TOL = 1e-12


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


def symmetrize(lap: Laplacian) -> Symmetrized:
    """Conjugate lap by diag(sqrt(mu)), returning a genuinely symmetric matrix.

    Raises NonSymmetrizable when the conjugated matrix is not symmetric, which
    signals a detailed-balance violation upstream.
    """
    sqrt_mu = np.sqrt(lap.measure.mu)
    s = (sqrt_mu[:, None] * lap.matrix) / sqrt_mu[None, :]
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


def eigendecompose(sym: Symmetrized) -> SpectralData:
    """Eigendecompose a symmetrized operator, fixing phases deterministically.

    The sign of each eigenvector is chosen so its largest-magnitude vertex
    component is positive (lowest index on ties).  The orthonormality and
    residual contracts are always verified.
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
    return SpectralData(evals, vertex, vecs, sym.sqrt_mu, sym.matrix).validate()


def decompose(lap: Laplacian) -> SpectralData:
    """Symmetrize then eigendecompose in one step."""
    return eigendecompose(symmetrize(lap))


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
    evals: np.ndarray, a2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ascending eigenvalues evals with target weights a2 by eigenvalue.

    Eigenvalues within 1e-10 of the group's first (relative to the spectral
    range, at least 1) form one eigenspace.  Returns the mean eigenvalue of
    each group, its summed weight and its multiplicity.
    """
    scale = max(float(evals[-1] - evals[0]), 1.0)
    lams: list[float] = []
    weights: list[float] = []
    counts: list[int] = []
    i = 0
    while i < evals.size:
        j = i
        while j + 1 < evals.size and evals[j + 1] - evals[i] <= 1e-10 * scale:
            j += 1
        lams.append(float(evals[i : j + 1].mean()))
        weights.append(float(a2[i : j + 1].sum()))
        counts.append(j + 1 - i)
        i = j + 1
    return np.array(lams), np.array(weights), np.array(counts)


def green(solver: SecularSolver, gamma: float, z: float) -> GreenEvaluation:
    """Green function G(z) = <e_w, (gamma Delta - z)^{-1} e_w> and its z-derivative.

    Both are sums over the solver's pole table, the distinct eigenvalues of
    Delta with their target weights.  Raises ValueError, naming the argument,
    for a gamma that is not positive and finite or a z that is not finite,
    before any sum, and PoleProximity when z is closer to gamma times any
    eigenvalue of Delta, visible or not, than 1e-12 times the width of that
    scaled spectrum.
    """
    _require_positive("gamma", gamma)
    if not np.isfinite(z):
        raise ValueError(f"z={z} must be finite")
    spectrum = gamma * solver.laplacian_spectrum
    span = max(float(spectrum[-1] - spectrum[0]), 1e-300)
    gap = np.abs(spectrum - z).min()
    if gap < POLE_TOL * span:
        raise PoleProximity(f"z={z} is within {gap:.3e} of the spectrum of gamma*Delta")
    diff = gamma * solver.lams - z
    value = float((solver.weights / diff).sum())
    derivative = float((solver.weights / diff**2).sum())
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


def overlaps_via_green(solver: SecularSolver, gamma: float) -> OverlapReport:
    """Overlap probabilities through the Green-function derivative, from one secular solve.

    Uses |<e_w, psi_a>|^2 = 1 / G'(E_a) and
    |<s, psi_a>|^2 = mu(w) / (vol * E_a^2 * G'(E_a)) at the roots E_a of
    G(E) = 1.  Raises EigenvalueOnSpectrum when a low state is orthogonal to
    e_w, so its energy is gamma times an eigenvalue of Delta and no root.
    """
    spec = solver.solve(gamma)
    _require_visible_low_pair(spec, EigenvalueOnSpectrum)
    return spec.low_pair()


# Target weight at or below which an eigenspace of Delta counts as orthogonal
# to e_w.  A component that vanishes comes out of eigh at rounding level, about
# 1e-16, so its square sits far below this; deflating a true weight this small
# moves the roots and amplitudes by about the weight itself.
DEFLATION_TOL = 1e-24
# The completeness identities of a secular solve hold to this tolerance:
# sum 1/G' = 1 absolutely, and (sum alpha)^2 = mu(w)/vol relative to the size
# of its terms, (sum |alpha|)^2, which is at most 1 (Cauchy-Schwarz).
IDENTITY_TOL = 1e-10
_SECULAR_MAX_ITER = 200
# Cells of one (couplings x roots x poles) array in a batched secular solve;
# bounds the solve's working memory to a few such arrays of 8 bytes a cell.
_BATCH_ELEMENTS = 1 << 16
# A secular batch drops its settled cells only while its arrays hold this many
# elements: below it, numpy's per-call cost outweighs the work a drop saves.
_COMPACT_ELEMENTS = 1 << 12


def _decomposed_axis(lap: Laplacian) -> tuple[SpectralData, int]:
    """The validated decomposition of the axis of lap's graph, as a d-fold Cartesian power, and d.

    A graph that is not a product is its own 1-fold power, decomposed from lap.matrix; a
    product's axis is decomposed alone, with no n x n array, once its edges pass
    ``_check_kronecker_form``.  Either way mu / vol must be the d-fold product of the axis's
    normalized measure within SYMMETRY_TOL relative (so Delta is self-adjoint in mu and vol
    is mu's sum), else it raises NonSymmetrizable.
    """
    axis, d = _power_form(lap.graph)
    if axis is not lap.graph:
        _check_kronecker_form(lap.graph, axis, d)
    spec = decompose(lap if axis is lap.graph else probabilistic_laplacian(axis))
    axis_mu = spec.sqrt_mu**2
    ratio = lap.measure.mu / lap.measure.volume / _power_outer(np.multiply, 1.0, [axis_mu / axis_mu.sum()] * d)
    defect = float(np.abs(ratio - 1.0).max())
    if not defect <= SYMMETRY_TOL:
        raise NonSymmetrizable(f"measure over volume differs from the walk's by {defect:.3e} relative")
    return spec, d


def _check_kronecker_form(graph: TransitionGraph, axis: TransitionGraph, d: int) -> None:
    """Raise NonSymmetrizable unless graph has, in any order, the ``_power_edges`` of axis and d, to the bit.

    Then its Laplacian is the 1/d-scaled Kronecker sum of the axis's, as ``cartesian_power`` builds it.
    """
    keyed = []
    for edges in (graph.edges, _power_edges(axis, d)):
        order = np.argsort(edges[0] * graph.n + edges[1])  # the (source, target) keys are distinct
        keyed.append([column[order] for column in edges])
    if graph.n != axis.n**d or not all(map(np.array_equal, *keyed)):
        raise NonSymmetrizable(f"Laplacian of the {d}-fold product differs from the Kronecker sum of its axis")


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


def _require_visible_low_pair(spec: SecularSpectrum, error: type = ConvergenceFailure) -> None:
    """Raise error unless both low states overlap e_w, i.e. solve G(E) = 1."""
    for a, i in enumerate(spec.level_index[:2]):
        if i < 0:
            raise error(
                f"level {a} (E = {spec.levels[a]:.6e}) at gamma={spec.gamma} is orthogonal to e_w"
            )


@dataclass(frozen=True)
class LowPairCertificate:
    """The two lowest states of gamma * Delta - |e_w><e_w|, bounded around a secular solve.

    ``report`` holds the secular energies E0 and E1 and the squared overlaps
    of the certificate's own unit vectors psi_0 and psi_1.  The true a-th
    lowest energy lies within ``residuals[a]`` of E_a, and the true a-th
    eigenvector within an angle of psi_a whose sine is at most ``angles[a]``,
    so each of its squared overlaps with a unit vector lies within
    ``angles[a]`` of psi_a's.
    """

    gamma: float
    report: OverlapReport
    residuals: tuple[float, float]
    angles: tuple[float, float]

    def crossing(self, which: str) -> tuple[float, float]:
        """The crossing value of the report, and a bound on its distance from the true one."""
        bound = sum(self.residuals) if which == "E" else sum(self.angles)
        return _crossing(which)(self.report), bound


class SecularSolver:
    """Every coupling's spectrum of gamma * Delta - |e_w><e_w| from one decomposition of Delta.

    The Hamiltonian is a rank-one change of gamma * Delta, so its visible
    energies are the roots of G(E) = sum_k a_k / (gamma lambda_k - E) = 1 over
    the distinct eigenvalues lambda_k of Delta with target weights a_k: one
    root in [-1, 0) and one between each pair of adjacent poles.  Each root is
    solved in its offset from the nearer pole (Bunch, Nielsen & Sorensen
    1978; LAPACK dlaed4), all intervals at once, by Newton steps on
    -tau (G - 1) safeguarded by bisection.  The eigenvalues and weights of
    Delta come from its axis: every graph is a d-fold Cartesian power of an
    axis, and a graph that is not a product is its own 1-fold power.  The
    power's Laplacian is the 1/d-scaled Kronecker sum of the axis Laplacian,
    so in symmetric coordinates its eigenvectors are tensor products of the
    axis ones (Horn & Johnson, Topics in Matrix Analysis, 4.4): index tuple k
    has eigenvalue sum_i lambda_{k_i} / d and target weight
    prod_i u_{k_i}(x_i)^2 at w = (x_1, ..., x_d).  The solver keeps the
    validated axis decomposition as ``axis``, which ``certify_low_pairs``
    builds its vectors and its residual from.  Every quantity the package
    reports of one Laplacian and target is read off one solver.
    """

    def __init__(self, lap: Laplacian, w: int):
        self.axis, d = _decomposed_axis(lap)
        # the target's coordinate on each axis
        self._axis_target = np.unravel_index(w, (self.axis.n,) * d)
        u, s = self.axis.sym_vectors, self.axis.sym_matrix
        evals = _power_outer(np.add, 0.0, [self.axis.eigenvalues] * d)
        a2 = _power_outer(np.multiply, 1.0, [u[x, :] ** 2 for x in self._axis_target])
        # the diagonal of I - P is 1 - p(x, x) >= 0, so each axis adds its own
        # row sum of |S|, for S the symmetrized Delta, to the power's
        rows = _power_outer(np.add, 0.0, [np.abs(s).sum(axis=1)] * d) / d
        diag_w = sum(float(s[x, x]) for x in self._axis_target) / d
        order = np.argsort(evals, kind="stable")
        evals, a2 = evals[order] / d, a2[order]
        # every eigenvalue of Delta, ascending with multiplicity
        self.laplacian_spectrum = evals
        lams, weights, counts = _target_weights(evals, a2)
        lams[0] = 0.0  # the constants span the kernel of I - P exactly
        visible = weights > DEFLATION_TOL
        self.lams = lams[visible]
        self.weights = weights[visible]
        # lam_gaps[k, j] = lambda_j - lambda_k between visible poles
        self._lam_gaps = self.lams[None, :] - self.lams[:, None]
        # the eigenvalues, with multiplicity, whose eigenvectors vanish at w:
        # each eigenspace less its one visible direction
        self._invisible = np.repeat(lams, counts - visible)
        self.target = w
        self.volume = lap.measure.volume
        self.s_w2 = float(lap.measure.mu[w] / lap.measure.volume)
        self.n = evals.size
        # row sums of |gamma * S - e_w e_w^T| are gamma * rows off the target row
        self._diag_w = diag_w
        self._row_w = float(rows[w]) - abs(diag_w)
        self._row_max = float(np.delete(rows, w).max(initial=0.0))
        self._s_norm = float(rows.max())  # ||S||_inf

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
        when the iteration stalls, when the completeness identities
        sum 1/G'(E_a) = 1 and (sum alpha_a)^2 = mu(w)/vol (relative to
        (sum |alpha_a|)^2) fail, which is how a missed root shows, or when a
        G'(E_a) or an overlap |<s, psi_a>|^2 is not finite, as at a coupling
        so small that G' overflows or E_a^2 underflows.  Raises ValueError,
        naming the first offender, for a coupling that is not positive and
        finite, before any iteration.
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
        # Every array step runs with numpy's floating-point warnings off: at an
        # extreme coupling, an overflow or underflow shows below as a stalled
        # iteration, a missed identity or a non-finite overlap, a typed failure.
        with np.errstate(all="ignore"):
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
            big = -0.5 * (q1 + np.copysign(np.sqrt(np.maximum(q1 * q1 - 4.0 * q2 * q0, 0.0)), q1))
            r1, r2 = big / q2, q0 / big
            tau = np.where(
                (r1 > lo) & (r1 < hi), r1, np.where((r2 > lo) & (r2 < hi), r2, 0.5 * (lo + hi))
            ).reshape(-1)
            # The iteration runs on one row of poles per (coupling, root) cell,
            # over the cells in `live`.  Once at least half of them have
            # settled, in arrays of _COMPACT_ELEMENTS or more, the settled ones
            # are written back to tau and dropped.  A cell's arithmetic does
            # not depend on the rows beside it, so its bits do not change.
            live = np.arange(nb * m)
            rel_l, orig_l, a_l = rel.reshape(-1, m), origin.reshape(-1), a_o.reshape(-1)
            tau_l, lo_l, hi_l = tau, lo.reshape(-1), hi.reshape(-1)
            done_l = np.zeros(live.size, dtype=bool)
            cells = np.arange(live.size)
            for _ in range(_SECULAR_MAX_ITER):
                diff = rel_l - tau_l[:, None]
                q = a / diff
                q[cells, orig_l] = 0.0
                r = q.sum(axis=-1) - 1.0
                # f = -tau (G - 1) drops the origin pole: smooth across the root
                f = a_l - tau_l * r
                # settled once f is within its own rounding error
                settled = np.abs(f) <= 8.0 * eps * (a_l + np.abs(tau_l) * (np.abs(q).sum(axis=-1) + 1.0))
                below = f * tau_l > 0.0  # G < 1: the root lies above tau
                lo_l = np.where(below, tau_l, lo_l)
                hi_l = np.where(below, hi_l, tau_l)
                step = tau_l + f / (r + tau_l * (q / diff).sum(axis=-1))
                new = np.where(
                    settled, tau_l, np.where((step > lo_l) & (step < hi_l), step, 0.5 * (lo_l + hi_l))
                )
                converged = settled | (np.abs(new - tau_l) <= 4.0 * eps * np.abs(new))
                tau_l = np.where(done_l, tau_l, new)
                done_l |= converged
                n_done = np.count_nonzero(done_l)
                if n_done == live.size:
                    break
                if 2 * n_done >= live.size and live.size * m >= _COMPACT_ELEMENTS:
                    tau[live] = tau_l
                    pending = np.flatnonzero(~done_l)
                    cells = cells[: pending.size]
                    live, rel_l, orig_l, a_l = live[pending], rel_l[pending], orig_l[pending], a_l[pending]
                    tau_l, lo_l, hi_l, done_l = tau_l[pending], lo_l[pending], hi_l[pending], done_l[pending]
            tau[live] = tau_l
            done = np.ones(nb * m, dtype=bool)
            done[live] = done_l
            tau, done = tau.reshape(nb, m), done.reshape(nb, m)
            gprime = (a / (rel - tau[..., None]) ** 2).sum(axis=-1)
            energies = gammas[:, None] * self.lams[origin] + tau
            w_sq = 1.0 / gprime
            amps = -np.sqrt(self.s_w2) / (energies * gprime)
            s_sq = self.s_w2 / (energies**2 * gprime)
            w_defect = np.abs(w_sq.sum(axis=-1) - 1.0)
            s_defect = np.abs(amps.sum(axis=-1) ** 2 - self.s_w2) / np.abs(amps).sum(axis=-1) ** 2
            # an overflowing G' reads as a zero overlap, at which both identities can still hold
            finite = np.isfinite(gprime).all(axis=-1) & np.isfinite(s_sq).all(axis=-1)
            low = self._invisible[:3]
            candidates = np.concatenate([energies[:, :3], gammas[:, None] * low], axis=1)
        stalled = ~done.all(axis=1)
        # a NaN defect fails its comparison as well
        failed = stalled | ~((w_defect <= IDENTITY_TOL) & (s_defect <= IDENTITY_TOL) & finite)
        if failed.any():
            j = int(failed.argmax())
            gamma = float(gammas[j])
            if stalled[j]:
                raise ConvergenceFailure(f"secular iteration did not converge at gamma={gamma}")
            if finite[j]:
                raise ConvergenceFailure(
                    f"secular solve at gamma={gamma} misses weight: |sum 1/G' - 1| = {w_defect[j]:.3e}, "
                    f"|(sum alpha)^2 - mu/vol| / (sum |alpha|)^2 = {s_defect[j]:.3e}"
                )
            raise ConvergenceFailure(f"secular solve at gamma={gamma} gives a G'(E) or |<s,psi>|^2 that is not finite")
        index = np.concatenate([np.arange(min(m, 3)), np.full(low.size, -1)])
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

    def hamiltonian_spectra(self, gammas) -> list[np.ndarray]:
        """Every eigenvalue of gamma * Delta - |e_w><e_w|, ascending with multiplicity, per coupling.

        One ``solve_many``: each coupling's visible energies merged with gamma
        times every eigenvalue of Delta whose eigenvector vanishes at w.
        """
        return [
            np.sort(np.concatenate([spec.energies, spec.gamma * self._invisible]))
            for spec in self.solve_many(gammas)
        ]

    def certify_low_pairs(self, gammas) -> list[LowPairCertificate]:
        """Bounds on the two lowest states at each coupling, from one ``solve_many``.

        E_a is the a-th level of the solve, which must be visible.  The vector
        psi_a ~ (gamma S - E_a)^{-1} e_w, for S the symmetrized Delta, has
        coefficients prod_i u(x_i) / (gamma lambda - E_a) in the axis's
        product eigenbasis, mapped back by one ``tensordot`` per axis.  By
        Weyl's theorem H has an eigenvalue within r_a = ||H psi_a - E_a psi_a||
        of E_a.  S psi, the independent route, is one ``tensordot`` per axis
        with the axis's symmetrized Laplacian S_1, summed and divided by d, as
        the set-up certified lap's edges and measure to be.  Each entry of
        H psi - E_a psi rounds over at most m + d + 3 operations (m = axis.n
        products per axis term, d - 1 sums and a division joining them, then
        gamma, the target term and the subtraction), so r_a carries twice
        (m + d + 3) eps times gamma ||S||_inf + 1 + |E_a|, the row-sum bound
        on gamma |S| + e_w e_w^T + |E_a|; ||S||_inf is the largest row sum.
        Subtracting the rank-one e_w e_w^T from gamma S puts mu_2 >= 0 and
        mu_3 >= gamma lambda_2, for lambda_2 the smallest nonzero eigenvalue
        of Delta, so E0 + r0 < 0 certifies the ground state and
        0 <= E1 - r1, E1 + r1 < gamma lambda_2 the first excited one.  The
        same bounds give the gaps to the rest of the spectrum, and the angles
        follow by Davis & Kahan (1970): sin theta_a <= r_a / gap_a.  As mu / vol
        is the product of the axis's, s is the tensor power of the axis ground
        state.  Raises ConvergenceFailure when a low state is invisible or the
        ordering cannot be certified.
        """
        spectra = self.solve_many(gammas)
        for spec in spectra:
            _require_visible_low_pair(spec)
        gam = np.array([spec.gamma for spec in spectra])
        energies = np.array([spec.levels[:2] for spec in spectra])
        u, axis_lams = self.axis.sym_vectors, self.axis.eigenvalues
        m, d = u.shape[0], len(self._axis_target)
        num = _power_outer(np.multiply, 1.0, [u[x, :] for x in self._axis_target])
        lams = _power_outer(np.add, 0.0, [axis_lams] * d)
        psi = num / (gam[:, None, None] * (lams / d) - energies[..., None])
        psi = psi.reshape(-1, *(m,) * d)
        for _ in range(d):
            psi = np.tensordot(psi, u, axes=([1], [1]))
        psi = psi.reshape(gam.size, 2, -1)
        psi /= np.linalg.norm(psi, axis=-1)[..., None]

        s, w = self.axis.sym_matrix, self.target
        cube = psi.reshape(-1, *(m,) * d)
        s_psi = sum(np.moveaxis(np.tensordot(cube, s, axes=([k], [1])), -1, k) for k in range(1, d + 1)) / d
        h_psi = gam[:, None, None] * s_psi.reshape(psi.shape)
        h_psi[..., w] -= psi[..., w]
        residuals = np.linalg.norm(h_psi - energies[..., None] * psi, axis=-1)
        scale = gam * self._s_norm + 1.0
        residuals += 2.0 * (m + d + 3) * np.finfo(float).eps * (scale[:, None] + np.abs(energies))

        # lambda_2 of the axis is within the 2-norm of its m x m residual, at
        # most sqrt(m) times the largest column norm, of the computed one (Weyl)
        gap_2 = gam * (axis_lams[1] - np.sqrt(m) * self.axis.residual_norm) / d
        (e0, e1), (r0, r1) = energies.T, residuals.T
        certified = (e0 + r0 < 0.0) & (e1 - r1 >= 0.0) & (e1 + r1 < gap_2)
        if not certified.all():
            j = int(np.argmin(certified))
            raise ConvergenceFailure(
                f"cannot certify the two lowest states at gamma={gam[j]}: "
                f"E0 = {e0[j]:.6e} +- {r0[j]:.3e}, E1 = {e1[j]:.6e} +- {r1[j]:.3e}, "
                f"gamma lambda_2 = {gap_2[j]:.6e}"
            )
        angle0 = r0 / (e1 - r1 - e0)
        angle1 = r1 / np.minimum(e1 - e0 - r0, gap_2 - e1)
        ground = _power_outer(np.multiply, 1.0, [_ground_sym(self.axis.sqrt_mu)] * d)
        return [
            LowPairCertificate(
                gamma=float(gam[c]),
                report=_overlap_report(energies[c], psi[c].T, ground, w),
                residuals=(float(r0[c]), float(r1[c])),
                angles=(float(angle0[c]), float(angle1[c])),
            )
            for c in range(gam.size)
        ]


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


def theorem_bound_report(solver: SecularSolver, gamma: float) -> TheoremBounds:
    """Check |E_a^2 - mu(w)/vol| against the overlap-gap bounds, from one secular solve.

    The ground-state inequality is |E_0^2 - mu(w)/vol| <= eps0 with
    eps0 = | |<s,psi_0>|^2 - |<e_w,psi_0>|^2 |; the excited-state bound
    carries the extra prefactor built from the two s-overlaps.  Both low
    states must overlap e_w.
    """
    spec = solver.solve(gamma)
    _require_visible_low_pair(spec)
    rep = spec.low_pair()
    ratio = solver.s_w2
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
