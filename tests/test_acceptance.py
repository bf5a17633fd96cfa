"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy d=5 lattice sweeps are shared through a module-scoped fixture, so
the four table rows are computed once and reused by the criteria that consume
them.  Expected values are frozen reference rows for the d=5 lattice.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from qwsearch import cli
from qwsearch.errors import DegenerateLowStates, EigenvalueOnSpectrum
from qwsearch.graphs import (
    cartesian_power,
    complete_graph,
    path_graph,
    probabilistic_laplacian,
)
from qwsearch.search import decompose_at_gamma_E, gamma_critical_points, optimize_search
from qwsearch.spectral import (
    SecularSolver,
    green,
    overlaps_via_green,
    symmetrize,
    theorem_bound_report,
)

from dense_oracles import (
    SearchHamiltonian,
    decompose_hamiltonian,
    evolve,
    overlaps_direct,
    success_curve as dense_success_curve,
    symmetrize_hamiltonian,
)

LATTICE_P_VALUES = (0.91, 0.5, 0.4, 0.1)

# frozen reference rows for the d=5 lattice, corner target
TABLE_CRITICAL = {  # p: (gamma_s, gamma_w, gamma_E, gamma_opt)
    0.91: (1.0197, 1.0197, 1.0197, 1.0195),
    0.5: (1.1515, 1.1528, 1.1521, 1.1520),
    0.4: (1.2063, 1.2099, 1.2081, 1.2061),
    0.1: (1.7935, 1.9035, 1.8438, 1.785),
}
TABLE_OPTIMUM = {  # p: (E0, E1, sqrt_mu_over_vol, t_opt, half_pi_sqrt_vol)
    0.91: (-0.0004, 0.0002, 0.0003, 4380.0, 4535.8),
    0.5: (-0.010, 0.0099, 0.0113, 159.4, 138.52),
    0.4: (-0.0130, 0.01189, 0.0152, 125.8, 103.18),
    0.1: (-0.0135, 0.0085, 0.0273, 154.6, 57.54),
}


def report(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " — " + "; ".join(failures)
    print(f"[criterion {number}] {status}: {description}{detail}")
    assert not failures, f"criterion {number}: {'; '.join(failures)}"


@pytest.fixture(scope="module")
def lattice_results():
    """Critical couplings and search optimum for every reference row (computed once)."""
    out = {}
    for p in LATTICE_P_VALUES:
        _, lap, measure = cartesian_power(path_graph(p), 5)
        solver = SecularSolver(lap, 0)
        crit = gamma_critical_points(solver, (0.05, 3.0), grid_points=600)
        assert crit.gamma_E is not None
        opt = optimize_search(
            solver,
            (0.8 * crit.gamma_E, 1.2 * crit.gamma_E),
            gamma_points=200,
            t_points=4000,
        )
        out[p] = SimpleNamespace(solver=solver, lap=lap, measure=measure, crit=crit, opt=opt)
    return out


def random_instances(count: int = 50):
    """Deterministic ensemble: biased-path powers and complete graphs.

    Instances whose low states are degenerate or collide with the Laplacian
    spectrum violate the overlap formulas' hypotheses and are resampled.
    Each instance is (label, Hamiltonian, the solver that filtered it).
    """
    rng = np.random.default_rng(7)
    instances = []
    while len(instances) < count:
        if rng.random() < 0.5:
            p = float(rng.uniform(0.1, 0.9))
            d = int(rng.integers(1, 4))
            _, lap, _ = cartesian_power(path_graph(p), d)
            label = f"path p={p:.3f} d={d}"
        else:
            n = int(rng.integers(2, 33))
            lap = probabilistic_laplacian(complete_graph(n))
            label = f"complete N={n}"
        gamma = float(rng.uniform(0.2, 2.0))
        w = int(rng.integers(0, lap.graph.n))
        solver = SecularSolver(lap, w)
        try:
            overlaps_via_green(solver, gamma)
        except (DegenerateLowStates, EigenvalueOnSpectrum):
            continue
        instances.append((label, SearchHamiltonian(gamma, w, lap), solver))
    return instances


def test_criterion_1_complete_graph_closed_forms():
    start = time.monotonic()
    failures = []
    for n in (4, 16, 64, 1024):
        lap = probabilistic_laplacian(complete_graph(n))
        h = SearchHamiltonian((n - 1) / n, 0, lap)
        rep = overlaps_direct(h)
        root = np.sqrt(n)
        checks = [
            ("E0", rep.e0, -1.0 / root),
            ("E1", rep.e1, 1.0 / root),
            ("s_psi0", rep.s_psi0, (root + 1) / (2 * root)),
            ("w_psi0", rep.w_psi0, (root + 1) / (2 * root)),
            ("s_psi1", rep.s_psi1, (root - 1) / (2 * root)),
            ("w_psi1", rep.w_psi1, (root - 1) / (2 * root)),
        ]
        for name, got, want in checks:
            if abs(got - want) > 1e-9:
                failures.append(f"N={n}: {name}={got} vs {want}")
        times = np.linspace(0.0, np.pi * root, 500)
        curve = dense_success_curve(h, times)
        closed = (n - 1) / n * np.sin(times / root) ** 2 + 1.0 / n
        err = np.abs(curve - closed).max()
        if err > 1e-8:
            failures.append(f"N={n}: success curve deviates by {err:.2e}")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(1, f"complete-graph closed forms ({elapsed:.1f}s)", failures)


def test_criterion_2_green_direct_equivalence():
    start = time.monotonic()
    failures = []
    for label, h, solver in random_instances(50):
        lap = h.laplacian
        hsd = decompose_hamiltonian(h)
        direct = overlaps_direct(h, spectral=hsd)
        via = overlaps_via_green(solver, h.gamma)
        for name in ("e0", "e1", "s_psi0", "w_psi0", "s_psi1", "w_psi1"):
            if abs(getattr(direct, name) - getattr(via, name)) > 1e-8:
                failures.append(f"{label}: {name} mismatch")
        sym = symmetrize(lap)
        for a in (0, 1):
            e_a = float(hsd.eigenvalues[a])
            v_a = hsd.sym_vectors[:, a]
            if abs(v_a[h.target]) <= 1e-12:
                failures.append(f"{label}: <e_w, psi_{a}> vanishes")
            g_val = green(solver, h.gamma, e_a).value
            if abs(g_val - 1.0) > 1e-8:
                failures.append(f"{label}: G(E_{a}) = {g_val}")
            x = np.linalg.solve(
                h.gamma * sym.matrix - e_a * np.eye(lap.graph.n), v_a
            )
            if abs(x[h.target] * v_a[h.target] - 1.0) > 1e-8:
                failures.append(f"{label}: resolvent identity fails at E_{a}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(2, f"Green/direct overlap equivalence on 50 instances ({elapsed:.1f}s)", failures)


def test_criterion_3_evolution_matches_matrix_exponential():
    failures = []
    checked = 0
    for label, h, _ in random_instances(50):
        if h.laplacian.graph.n > 16:
            continue
        checked += 1
        sym = symmetrize_hamiltonian(h)
        s_sym = sym.sqrt_mu / np.sqrt((sym.sqrt_mu**2).sum())
        sd = decompose_hamiltonian(h)
        for t in (0.1, 1.0, 10.0):
            oracle = expm(-1j * sym.matrix * t) @ s_sym
            ours = evolve(h, t, spectral=sd).state * sym.sqrt_mu
            err = np.linalg.norm(ours - oracle)
            if err > 1e-9:
                failures.append(f"{label}: t={t} deviates by {err:.2e}")
    if checked == 0:
        failures.append("no instances with at most 16 vertices")
    report(3, f"matrix-exponential oracle on {checked} small instances", failures)


def test_criterion_4_critical_couplings(lattice_results):
    failures = []
    for p in LATTICE_P_VALUES:
        ref_s, ref_w, ref_e, ref_opt = TABLE_CRITICAL[p]
        res = lattice_results[p]
        crit, opt = res.crit, res.opt
        for name, got, want, tol in (
            ("gamma_s", crit.gamma_s, ref_s, 5e-4),
            ("gamma_w", crit.gamma_w, ref_w, 5e-4),
            ("gamma_E", crit.gamma_E, ref_e, 5e-4),
            ("gamma_opt", opt.gamma_opt, ref_opt, 5e-3),
        ):
            if got is None or abs(got - want) > tol:
                failures.append(f"p={p}: {name}={got} vs {want} (tol {tol})")
        ordered = (
            crit.gamma_s <= crit.gamma_E + 1e-6
            and crit.gamma_E <= crit.gamma_w + 1e-6
        )
        if not ordered:
            failures.append(f"p={p}: ordering violated")
    report(4, "critical couplings of the d=5 lattice", failures)


def test_criterion_5_optimum_row(lattice_results):
    failures = []
    for p in LATTICE_P_VALUES:
        ref_e0, ref_e1, ref_ratio, ref_topt, ref_half_pi = TABLE_OPTIMUM[p]
        res = lattice_results[p]
        opt = res.opt
        if abs(opt.e0 - ref_e0) > 2e-4:
            failures.append(f"p={p}: E0={opt.e0:.6f} vs {ref_e0} (tol 2e-4)")
        if abs(opt.e1 - ref_e1) > 2e-4:
            failures.append(f"p={p}: E1={opt.e1:.6f} vs {ref_e1} (tol 2e-4)")
        ratio = float(np.sqrt(res.measure.mu[0] / res.measure.volume))
        formula = (2.0 + 2.0 / (1.0 - p)) ** -2.5
        if abs(ratio - ref_ratio) > 1e-4:
            failures.append(f"p={p}: sqrt(mu/vol)={ratio:.6f} vs {ref_ratio}")
        if abs(ratio - formula) > 1e-12 * formula:
            failures.append(f"p={p}: sqrt(mu/vol) deviates from the volume formula")
        rel = abs(opt.t_opt - ref_topt) / ref_topt
        if rel > 0.02:
            failures.append(
                f"p={p}: t_opt={opt.t_opt:.2f} vs {ref_topt} ({rel:.2%}, tol 2%)"
            )
        half_pi = float(np.pi / 2.0 * np.sqrt(res.measure.volume / res.measure.mu[0]))
        half_pi_formula = np.pi / 2.0 * (2.0 + 2.0 / (1.0 - p)) ** 2.5
        if abs(half_pi - half_pi_formula) > 1e-12 * half_pi_formula:
            failures.append(f"p={p}: (pi/2) sqrt(vol/mu) deviates from the formula")
        if abs(half_pi - ref_half_pi) > 0.1:
            failures.append(f"p={p}: (pi/2) sqrt(vol/mu)={half_pi:.2f} vs {ref_half_pi}")
    report(5, "optimum row of the d=5 lattice", failures)


def test_criterion_6_eigenvalue_volume_bounds(lattice_results):
    failures = []
    for p in LATTICE_P_VALUES:
        res = lattice_results[p]
        bounds = theorem_bound_report(res.solver, res.crit.gamma_E)
        if not bounds.first_holds:
            failures.append(f"p={p}: ground-state bound fails")
        if not bounds.second_holds:
            failures.append(f"p={p}: excited-state bound fails")
    for n in (4, 16, 64, 1024):
        lap = probabilistic_laplacian(complete_graph(n))
        bounds = theorem_bound_report(SecularSolver(lap, 0), (n - 1) / n)
        if not (bounds.first_holds and bounds.second_holds):
            failures.append(f"complete N={n}: bound fails")
        if bounds.lhs0 > 1e-12 or bounds.lhs1 > 1e-12:
            failures.append(
                f"complete N={n}: |E^2 - mu/vol| = {max(bounds.lhs0, bounds.lhs1):.2e}"
            )
    report(6, "eigenvalue-volume inequalities at gamma_E", failures)


def test_criterion_7_two_level_decomposition(lattice_results):
    failures = []
    times = np.linspace(0.0, 2.0 * np.pi, 1000)
    rep = decompose_at_gamma_E(SecularSolver(probabilistic_laplacian(complete_graph(4)), 0), 0.75, times)
    if abs(rep.theta) > 1e-12:
        failures.append(f"complete N=4: theta={rep.theta}")
    if abs(rep.constant - 0.25) > 1e-12:
        failures.append(f"complete N=4: constant={rep.constant}")
    if abs(rep.amplitude - 0.75) > 1e-12:
        failures.append(f"complete N=4: amplitude={rep.amplitude}")
    if np.abs(rep.residual).max() > 1e-12:
        failures.append("complete N=4: residual term not identically zero")
    if rep.max_reconstruction_error > 1e-10:
        failures.append(f"complete N=4: reconstruction error {rep.max_reconstruction_error:.2e}")
    for p in LATTICE_P_VALUES:
        res = lattice_results[p]
        rep = decompose_at_gamma_E(
            res.solver, res.crit.gamma_E,
            np.linspace(0.0, min(2.0 * np.pi / (res.opt.e1 - res.opt.e0), 400.0), 1000),
        )
        if rep.max_reconstruction_error > 1e-10:
            failures.append(
                f"p={p}: reconstruction error {rep.max_reconstruction_error:.2e}"
            )
        if rep.ratio_residual > 1e-8:
            failures.append(f"p={p}: overlap ratio residual {rep.ratio_residual:.2e}")
    report(7, "two-level decomposition identity at gamma_E", failures)


def test_criterion_8_effective_sine_approximation(lattice_results):
    failures = []
    res = lattice_results[0.91]
    opt = res.opt
    h = SearchHamiltonian(opt.gamma_opt, 0, res.lap)
    times = np.linspace(0.0, opt.t_opt, 4000)
    curve = dense_success_curve(h, times, spectral=decompose_hamiltonian(h))
    approx = 0.89 * np.sin(opt.e1 * times) ** 2
    sup = float(np.abs(curve - approx).max())
    if sup >= 0.05:
        failures.append(f"sup-norm distance {sup:.4f} (tolerance 0.05)")
    report(8, "0.89 sin^2 approximation at the p=0.91 optimum", failures)


def test_criterion_9_determinism_across_threads(tmp_path):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    # --threads has no effect; the thread count that could move bits is BLAS's,
    # which is read once, as numpy loads, so each side runs in its own process
    src = Path(cli.__file__).resolve().parents[1]
    failures = []
    outputs = {}
    for threads, blas_threads in ((1, 1), (3, 2)):
        out = tmp_path / f"threads{threads}"
        config = tmp_path / f"cfg{threads}.json"
        config.write_text(json.dumps({
            "graph.family": "path-power",
            "graph.p": [0.4, 0.7],
            "graph.d": 2,
            "output.path": str(out),
            "sweep.gamma_points": 120,
            "sweep.t_points": 500,
        }))
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(blas_threads))
        env = os.environ | {"PYTHONPATH": str(src)} | blas
        code = 0
        for command in (["tables"], ["figures", "--figure", "overlaps"], ["figures", "--figure", "volume"]):
            argv = [sys.executable, "-m", "qwsearch.cli", *command, "--config", str(config), "--threads", str(threads)]
            code |= subprocess.run(argv, env=env, capture_output=True).returncode
        if code != 0:
            failures.append(f"threads={threads}: nonzero exit")
            continue
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in (
                "tables.csv", "overlaps_p0.4.csv", "overlaps_p0.7.csv", "volume.csv",
            )
        }
    if not failures and outputs[1] != outputs[3]:
        diff = [k for k in outputs[1] if outputs[1][k] != outputs[3][k]]
        failures.append(f"outputs differ between thread counts: {diff}")
    report(9, "byte-identical outputs across thread counts", failures)
