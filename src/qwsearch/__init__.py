"""Continuous-time quantum-walk search on finite weighted graphs.

Build a graph family, take its probabilistic Laplacian and reversibility
measure, then study the search Hamiltonian gamma * Delta - V_w: overlap
probabilities, Green functions, critical couplings and the time/coupling
optimum of the success probability.

The public names load their layer on first access (PEP 562), so importing
the package, or one layer of it, loads no other layer.
"""

import importlib

_EXPORTS = {
    "errors": (
        "ConfigError",
        "ConvergenceFailure",
        "CycleInconsistency",
        "DegenerateLowStates",
        "EigenvalueOnSpectrum",
        "NoRootInRange",
        "NonSymmetrizable",
        "NotAtGammaE",
        "NumericalFailure",
        "PoleProximity",
    ),
    "graphs": (
        "InteriorMeasureProfile",
        "Laplacian",
        "TransitionGraph",
        "VertexMeasure",
        "cartesian_power",
        "complete_graph",
        "interior_measure_profile",
        "kolmogorov_measure",
        "path_graph",
        "probabilistic_laplacian",
    ),
    "search": (
        "DecompositionReport",
        "GammaCriticalPoints",
        "SearchOptimum",
        "decompose_at_gamma_E",
        "find_gamma_critical",
        "gamma_critical_points",
        "optimize_search",
        "success_curve",
    ),
    "spectral": (
        "GreenEvaluation",
        "OverlapReport",
        "SecularSolver",
        "SecularSpectrum",
        "SpectralData",
        "Symmetrized",
        "TheoremBounds",
        "decompose",
        "eigendecompose",
        "green",
        "overlaps_via_green",
        "symmetrize",
        "theorem_bound_report",
    ),
}

_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    # each access reads the owner module's attribute, so a name patched there shows here
    layer = _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _OWNER.keys())
