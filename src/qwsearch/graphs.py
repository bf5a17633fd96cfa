"""Graph families, probabilistic Laplacians, reversibility measures and products.

A graph is a finite set of vertices with row-stochastic directed edge weights
p(x, y), interpreted as the transition probabilities of a random walker.  The
probabilistic Laplacian is I - P.  For reversible walks a positive vertex
measure mu with mu(x) p(x, y) = mu(y) p(y, x) makes the Laplacian self-adjoint
in the mu-weighted inner product; its total mass is the graph volume.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, permutations
from types import MappingProxyType

import numpy as np

from .errors import CycleInconsistency

STOCHASTIC_TOL = 1e-12
BALANCE_TOL = 1e-10
PRODUCT_SIZE_CAP = 4**6  # 4,096 vertices: 128 MiB per dense n x n matrix
# complete_graph stores N (N - 1) weights in a dict: 1.8 s and a 240 MB peak
# to build, measure and set up N = 1024, and 8.3 s and 867 MB at N = 2048
COMPLETE_SIZE_CAP = 1024

# The search layer's default coupling range and grid sizes.  They sit in this
# layer, which every command loads, so a config is checked without the engine.
GAMMA_RANGE_DEFAULT = (0.05, 3.0)
SCAN_POINTS_DEFAULT = 600
OPT_GAMMA_POINTS_DEFAULT = 200
OPT_T_POINTS_DEFAULT = 4000


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph with row-stochastic edge weights.

    ``weights`` maps ordered pairs (x, y) to p(x, y); pairs without an edge
    are absent.  Stored weights lie in (0, 1] and every row sums to one.
    Every check and assembly reads ``weights`` through ``_edges``, and the
    check runs once (``_tree``), so the graph keeps ``weights`` behind a
    read-only view: the dict it is given becomes the graph's own, and must
    not change afterwards.
    """

    n: int
    weights: Mapping[tuple[int, int], float]
    family: str
    params: dict = field(default_factory=dict)
    axis: "TransitionGraph | None" = None

    def __post_init__(self):
        if not isinstance(self.weights, MappingProxyType):
            object.__setattr__(self, "weights", MappingProxyType(self.weights))

    def transition_matrix(self) -> np.ndarray:
        sources, targets, p = self._edges
        P = np.zeros((self.n, self.n))
        P[sources, targets] = p
        return P

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sources, targets and weights of the edges, in ``weights`` order, as read-only arrays."""
        m = len(self.weights)
        ends = np.fromiter(chain.from_iterable(self.weights), dtype=np.intp, count=2 * m).reshape(m, 2)
        p = np.fromiter(self.weights.values(), dtype=float, count=m)
        ends.flags.writeable = p.flags.writeable = False
        return ends[:, 0], ends[:, 1], p

    @cached_property
    def _tree(self) -> list[np.ndarray]:
        """Breadth-first tree from vertex 0 (see ``_bfs_tree``) of a graph checked to be a walk.

        Raises ValueError unless n is an integer >= 1, every edge joins two of
        the vertices 0..n-1, every weight lies in (0, 1], every row sums to one
        and the graph is strongly connected.  Each graph is checked once.
        """
        _require_count("n", self.n, 1)
        sources, targets, p = self._edges
        bad = np.flatnonzero((np.minimum(sources, targets) < 0) | (np.maximum(sources, targets) >= self.n))
        if bad.size:
            raise ValueError(f"edge ({sources[bad[0]]},{targets[bad[0]]}) has an endpoint outside 0..{self.n - 1}")
        bad = np.flatnonzero(~((0.0 < p) & (p <= 1.0)))
        if bad.size:
            x, y = int(sources[bad[0]]), int(targets[bad[0]])
            raise ValueError(f"edge weight p({x},{y})={self.weights[(x, y)]} outside (0, 1]")
        # bincount adds in input order, so each sum has the bits of a loop over the
        # edges; with no edges at all it gives integer zeros
        row_sums = np.bincount(sources, weights=p, minlength=self.n).astype(float)
        if np.abs(row_sums - 1.0).max() > STOCHASTIC_TOL:
            bad = int(np.abs(row_sums - 1.0).argmax())
            raise ValueError(f"row {bad} of the transition matrix sums to {row_sums[bad]}")
        # every vertex is reached from 0, and reaches it
        tree, back_tree = (_bfs_tree(self.n, a, b) for a, b in ((sources, targets), (targets, sources)))
        if min(sum(map(len, tree)), sum(map(len, back_tree))) < self.n - 1:
            raise ValueError("graph is not strongly connected")
        return tree


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


def _require_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name}={value!r} must be an integer >= {least}")


def _bfs_tree(n: int, sources: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Breadth-first tree from vertex 0: per level, the edges that first reach its vertices.

    Each vertex's edges are taken by ascending target and the vertices of a
    level in the order they were reached, so a queue over sorted adjacency
    lists reaches the same vertices by the same edges in the same order.
    """
    # stable sorts run in near-linear time on the sorted keys most graphs store
    order = np.argsort(sources * n + targets, kind="stable")
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(sources, minlength=n), out=start[1:])
    seen = np.arange(n) == 0
    frontier = np.zeros(1, dtype=np.intp)
    levels = []
    while frontier.size:
        count = start[frontier + 1] - start[frontier]
        # positions in order of the frontier's edges, one vertex after another
        at = np.arange(count.sum()) + np.repeat(start[frontier] - np.cumsum(count) + count, count)
        edges = order[at]
        edges = edges[~seen[targets[edges]]]
        _, first = np.unique(targets[edges], return_index=True)
        edges = edges[np.sort(first)]
        seen[targets[edges]] = True
        levels.append(edges)
        frontier = targets[edges]
    return levels


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
    g._tree  # checks the walk
    return g


def complete_graph(n: int) -> TransitionGraph:
    """Complete graph on n >= 2 vertices with uniform transition weights."""
    _require_count("n", n, 2)
    if n > COMPLETE_SIZE_CAP:
        raise ValueError(f"complete graph on {n} vertices is above the cap {COMPLETE_SIZE_CAP}")
    weights = dict.fromkeys(permutations(range(n), 2), 1.0 / (n - 1))
    g = TransitionGraph(n, weights, "complete", {"N": n})
    g._tree  # checks the walk
    return g


def kolmogorov_measure(g: TransitionGraph) -> VertexMeasure:
    """Reversibility measure anchored at mu(0) = 1.

    Propagates mu(y) = mu(x) p(x, y) / p(y, x) along a breadth-first spanning
    tree from vertex 0, then verifies detailed balance on every edge.  Raises
    CycleInconsistency when the walk is not reversible.
    """
    tree = g._tree
    sources, targets, p = g._edges
    # the reverse of edge (x, y) is the edge whose key x n + y equals y n + x
    key, back_key = sources * g.n + targets, targets * g.n + sources
    order = np.argsort(key, kind="stable")
    back = order[np.minimum(np.searchsorted(key[order], back_key), key.size - 1)]
    reversible = key[back] == back_key
    mu = np.full(g.n, np.nan)
    mu[0] = 1.0
    for level in tree:
        one_way = level[~reversible[level]]
        if one_way.size:
            raise _one_way(sources[one_way[0]], targets[one_way[0]])
        mu[targets[level]] = mu[sources[level]] * p[level] / p[back[level]]
    flow, back_flow = mu[sources] * p, mu[targets] * p[back]
    unbalanced = np.abs(flow - back_flow) > BALANCE_TOL * np.maximum(np.abs(flow), np.abs(back_flow))
    bad = np.flatnonzero(~reversible | unbalanced)
    if bad.size:
        i = bad[0]
        if not reversible[i]:
            raise _one_way(sources[i], targets[i])
        raise CycleInconsistency(
            f"detailed balance fails on edge ({sources[i]},{targets[i]}): "
            f"{flow[i]} vs {back_flow[i]}"
        )
    return VertexMeasure(mu, float(mu.sum()))


def _one_way(x, y) -> CycleInconsistency:
    return CycleInconsistency(f"edge ({x},{y}) has no reverse edge; walk is not reversible")


def probabilistic_laplacian(
    g: TransitionGraph, measure: VertexMeasure | None = None
) -> Laplacian:
    """Assemble I - P for g, validating self-adjointness under the measure."""
    if measure is None:
        measure = kolmogorov_measure(g)
    sources, targets, p = g._edges
    # 0.0 - p, not -p, so a zero weight would give +0.0 like every cell off the edges
    delta = np.zeros((g.n, g.n))
    delta[sources, targets] = 0.0 - p
    delta.flat[:: g.n + 1] += 1.0
    _check_self_adjoint(delta, measure.mu, sources, targets)
    return Laplacian(delta, g, measure)


def _check_self_adjoint(
    delta: np.ndarray, mu: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> None:
    # M Delta is compared with its transpose at the edges alone: every other
    # entry of both is an exact zero, and the diagonal is symmetric as it stands
    rows = mu[sources] * delta[sources, targets]
    cols = mu[targets] * delta[targets, sources]
    skew = float(np.abs(rows - cols).max(initial=0.0))
    scale = float(max(np.abs(rows).max(initial=0.0), np.abs(mu * np.diagonal(delta)).max()))
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
    _require_count("d", d, 1)
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
    gd._tree  # checks the walk
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

    sources, _, p = axis._edges
    out_degree = np.bincount(sources, minlength=axis.n)
    interior_mask = _power_outer(np.logical_and, True, [out_degree > 1] * d)
    interior = mu[interior_mask]
    if interior.size == 0:
        i_min = i_max = float("nan")
        constant = False
    else:
        i_min, i_max = float(interior.min()), float(interior.max())
        constant = (i_max - i_min) <= 1e-12 * max(i_max, 1.0)

    homogeneous = not (np.abs(p - 1.0 / out_degree[sources]) > 1e-12).any()
    return InteriorMeasureProfile(
        interior_min=i_min,
        interior_max=i_max,
        interior_constant=constant,
        homogeneous=homogeneous,
        graph_min=float(mu.min()),
        graph_max=float(mu.max()),
    )

