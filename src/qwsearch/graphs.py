"""Graph families, probabilistic Laplacians, reversibility measures and products.

A graph is a finite set of vertices with row-stochastic directed edge weights
p(x, y), interpreted as the transition probabilities of a random walker.  The
probabilistic Laplacian is I - P.  For reversible walks a positive vertex
measure mu with mu(x) p(x, y) = mu(y) p(y, x) makes the Laplacian self-adjoint
in the mu-weighted inner product; its total mass is the graph volume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleInconsistency

STOCHASTIC_TOL = 1e-12
BALANCE_TOL = 1e-10
PRODUCT_SIZE_CAP = 4**6  # 4,096 vertices: 128 MiB per dense n x n matrix


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph with row-stochastic edge weights.

    ``weights`` maps ordered pairs (x, y) to p(x, y); pairs without an edge
    are absent.  Stored weights lie in (0, 1] and every row sums to one.
    """

    n: int
    weights: dict[tuple[int, int], float]
    family: str
    params: dict = field(default_factory=dict)
    axis: "TransitionGraph | None" = None

    def transition_matrix(self) -> np.ndarray:
        P = np.zeros((self.n, self.n))
        for (x, y), p in self.weights.items():
            P[x, y] = p
        return P


@dataclass(frozen=True)
class VertexMeasure:
    """Positive vertex weights satisfying detailed balance, with their total mass."""

    mu: np.ndarray
    volume: float


@dataclass(frozen=True)
class Laplacian:
    """Dense probabilistic Laplacian I - P together with its graph and measure."""

    matrix: np.ndarray
    graph: TransitionGraph
    measure: VertexMeasure


def _validate_graph(g: TransitionGraph) -> None:
    row_sums = np.zeros(g.n)
    for (x, y), p in g.weights.items():
        if not (0.0 < p <= 1.0):
            raise ValueError(f"edge weight p({x},{y})={p} outside (0, 1]")
        row_sums[x] += p
    if np.abs(row_sums - 1.0).max() > STOCHASTIC_TOL:
        bad = int(np.abs(row_sums - 1.0).argmax())
        raise ValueError(f"row {bad} of the transition matrix sums to {row_sums[bad]}")
    if not _strongly_connected(g):
        raise ValueError("graph is not strongly connected")


def _strongly_connected(g: TransitionGraph) -> bool:
    fwd: list[list[int]] = [[] for _ in range(g.n)]
    bwd: list[list[int]] = [[] for _ in range(g.n)]
    for x, y in g.weights:
        fwd[x].append(y)
        bwd[y].append(x)

    def reaches_all(adj):
        seen = {0}
        todo = deque([0])
        while todo:
            u = todo.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return len(seen) == g.n

    return reaches_all(fwd) and reaches_all(bwd)


def path_graph(p: float) -> TransitionGraph:
    """Four-vertex directed path with reflecting ends and interior bias p.

    The walker always moves inward from the endpoints; from an interior vertex
    it steps toward the middle with probability p and outward with 1 - p.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"path parameter p={p} must lie in (0, 1)")
    weights = {
        (0, 1): 1.0,
        (1, 0): 1.0 - p,
        (1, 2): p,
        (2, 1): p,
        (2, 3): 1.0 - p,
        (3, 2): 1.0,
    }
    g = TransitionGraph(4, weights, "path", {"p": p})
    _validate_graph(g)
    return g


def complete_graph(n: int) -> TransitionGraph:
    """Complete graph on n >= 2 vertices with uniform transition weights."""
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n}")
    w = 1.0 / (n - 1)
    weights = {(x, y): w for x in range(n) for y in range(n) if x != y}
    g = TransitionGraph(n, weights, "complete", {"N": n})
    _validate_graph(g)
    return g


def kolmogorov_measure(g: TransitionGraph) -> VertexMeasure:
    """Reversibility measure anchored at mu(0) = 1.

    Propagates mu(y) = mu(x) p(x, y) / p(y, x) along a breadth-first spanning
    tree from vertex 0, then verifies detailed balance on every edge.  Raises
    CycleInconsistency when the walk is not reversible.
    """
    _validate_graph(g)
    mu = np.full(g.n, np.nan)
    mu[0] = 1.0
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for x, y in g.weights:
        adj[x].append(y)
    for nbrs in adj:
        nbrs.sort()
    todo = deque([0])
    while todo:
        x = todo.popleft()
        for y in adj[x]:
            if not np.isnan(mu[y]):
                continue
            mu[y] = mu[x] * g.weights[(x, y)] / _reverse_weight(g, x, y)
            todo.append(y)
    for (x, y), p in g.weights.items():
        flow = mu[x] * p
        back_flow = mu[y] * _reverse_weight(g, x, y)
        if abs(flow - back_flow) > BALANCE_TOL * max(abs(flow), abs(back_flow)):
            raise CycleInconsistency(
                f"detailed balance fails on edge ({x},{y}): "
                f"{flow} vs {back_flow}"
            )
    return VertexMeasure(mu, float(mu.sum()))


def _reverse_weight(g: TransitionGraph, x: int, y: int) -> float:
    back = g.weights.get((y, x))
    if back is None:
        raise CycleInconsistency(
            f"edge ({x},{y}) has no reverse edge; walk is not reversible"
        )
    return back


def probabilistic_laplacian(
    g: TransitionGraph, measure: VertexMeasure | None = None
) -> Laplacian:
    """Assemble I - P for g, validating self-adjointness under the measure."""
    if measure is None:
        measure = kolmogorov_measure(g)
    # I - P in the one dense array: 0.0 - p keeps +0.0 where -p would give -0.0
    delta = g.transition_matrix()
    np.subtract(0.0, delta, out=delta)
    delta.flat[:: g.n + 1] += 1.0
    _check_self_adjoint(delta, measure.mu)
    return Laplacian(delta, g, measure)


_CHECK_ROWS = 128


def _check_self_adjoint(delta: np.ndarray, mu: np.ndarray) -> None:
    # M Delta is compared with its transpose a block of rows at a time, so no
    # second n x n array is allocated
    skew = scale = 0.0
    for i in range(0, delta.shape[0], _CHECK_ROWS):
        rows = mu[i : i + _CHECK_ROWS, None] * delta[i : i + _CHECK_ROWS]
        cols = (mu[:, None] * delta[:, i : i + _CHECK_ROWS]).T
        skew = max(skew, float(np.abs(rows - cols).max()))
        scale = max(scale, float(np.abs(rows).max()))
    if skew > 1e-12 * max(scale, 1.0):
        raise CycleInconsistency(
            f"M Delta is not symmetric (defect {skew:.3e}); measure inconsistent"
        )


def _power_form(g: TransitionGraph) -> tuple[TransitionGraph, int]:
    """g as a Cartesian power (axis, d); a graph that is not a product is its own 1-fold power."""
    if g.family == "product" and g.axis is not None:
        return g.axis, g.params["d"]
    return g, 1


def _power_outer(op: np.ufunc, identity, factors) -> np.ndarray:
    """Combine one value per axis at every vertex of a Cartesian power, in axis order.

    ``factors[k]`` holds a value for each vertex of axis k.  Vertex v, with
    coordinates (x_1, ..., x_d), gets op(... op(identity, factors[0][x_1]) ...,
    factors[d-1][x_d]); vertices are indexed lexicographically with the first
    axis most significant.
    """
    out = np.full(1, identity)
    for f in factors:
        out = op.outer(out, f).ravel()
    return out


def _power_steps(axis: TransitionGraph, d: int) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Every one-axis step of the d-fold Cartesian power of axis, as (sources, targets, p/d) runs.

    One run per axis k and edge (a, b) of weight p, axis by axis from the
    first (most significant), then in ``axis.weights`` order: the vertices
    whose coordinate on axis k is a, ascending, and the vertices that the
    step to coordinate b reaches from them.
    """
    m = axis.n
    vertices = np.arange(m**d)
    runs = []
    for k in range(d):
        stride = m ** (d - 1 - k)
        digit = vertices // stride % m
        for (a, b), p in axis.weights.items():
            v = vertices[digit == a]
            runs.append((v, v + (b - a) * stride, p / d))
    return runs


def _product_measure(g: TransitionGraph, d: int) -> VertexMeasure:
    """Measure of the d-fold Cartesian power of g: the product of g's measure over the axes."""
    mu = _power_outer(np.multiply, 1.0, [kolmogorov_measure(g).mu] * d)
    return VertexMeasure(mu, float(mu.sum()))


def cartesian_power(
    g: TransitionGraph, d: int
) -> tuple[TransitionGraph, Laplacian, VertexMeasure]:
    """d-fold Cartesian power of g: each step moves along one axis, with weight p/d.

    Vertices are indexed lexicographically with the first factor most
    significant.  The Laplacian I - P is assembled from these edges like any
    other graph's; it equals the 1/d-normalized Kronecker sum of g's Laplacian.
    The measure is the product of per-axis measures, so the volume is the
    per-axis volume raised to d.
    """
    if d < 1:
        raise ValueError(f"product dimension d={d} must be at least 1")
    n = g.n**d
    if n > PRODUCT_SIZE_CAP:
        raise ValueError(f"product has {n} vertices, above the cap {PRODUCT_SIZE_CAP}")

    vertex = list(range(n))  # one int per vertex, shared by every key that names it
    weights: dict[tuple[int, int], float] = {}
    for sources, targets, p in _power_steps(g, d):
        for x, y in zip(sources.tolist(), targets.tolist()):
            step = (vertex[x], vertex[y])
            # a self-loop of the axis is one of every axis: they add up, in axis order
            weights[step] = weights[step] + p if step in weights else p

    params = {"d": d, "axis_n": g.n, "base": g.family, **g.params}
    gd = TransitionGraph(n, weights, "product", params, axis=g)
    _validate_graph(gd)
    measure = _product_measure(g, d)
    return gd, probabilistic_laplacian(gd, measure), measure


@dataclass(frozen=True)
class InteriorMeasureProfile:
    """Measure statistics over interior lattice vertices plus a homogeneity verdict.

    Interior vertices are those whose coordinates all avoid the axis
    boundaries (axis vertices with a single out-neighbor).  The structure is
    homogeneous when every axis row is uniform over its out-neighbors, i.e.
    the walk is the simple unbiased one.
    """

    interior_min: float
    interior_max: float
    interior_constant: bool
    homogeneous: bool
    graph_min: float
    graph_max: float


def interior_measure_profile(g: TransitionGraph) -> InteriorMeasureProfile:
    """Profile the reversibility measure of g over its interior vertices."""
    axis, d = _power_form(g)
    # the measure behind the volume; for a product, the one cartesian_power gives it
    mu = _product_measure(axis, d).mu

    out_degree = np.zeros(axis.n, dtype=int)
    for x, _ in axis.weights:
        out_degree[x] += 1
    interior_mask = _power_outer(np.logical_and, True, [out_degree > 1] * d)
    interior = mu[interior_mask]
    if interior.size == 0:
        i_min = i_max = float("nan")
        constant = False
    else:
        i_min, i_max = float(interior.min()), float(interior.max())
        constant = (i_max - i_min) <= 1e-12 * max(i_max, 1.0)

    homogeneous = _rows_uniform(axis)
    return InteriorMeasureProfile(
        interior_min=i_min,
        interior_max=i_max,
        interior_constant=constant,
        homogeneous=homogeneous,
        graph_min=float(mu.min()),
        graph_max=float(mu.max()),
    )


def _rows_uniform(g: TransitionGraph) -> bool:
    by_row: dict[int, list[float]] = {}
    for (x, _), p in g.weights.items():
        by_row.setdefault(x, []).append(p)
    for ps in by_row.values():
        target = 1.0 / len(ps)
        if any(abs(p - target) > 1e-12 for p in ps):
            return False
    return True
