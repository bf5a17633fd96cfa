"""Graph families, probabilistic Laplacians, reversibility measures and products.

A graph is a finite set of vertices with row-stochastic directed edge weights
p(x, y), interpreted as the transition probabilities of a random walker.  The
probabilistic Laplacian is I - P.  For reversible walks a positive vertex
measure mu with mu(x) p(x, y) = mu(y) p(y, x) makes the Laplacian self-adjoint
in the mu-weighted inner product; its total mass is the graph volume.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import CycleInconsistency

STOCHASTIC_TOL = 1e-12
BALANCE_TOL = 1e-10
# 4,096 vertices: `spectrum` writes the n^2 cells of the largest's Delta as
# laplacian.csv, 34 MB of text; no command builds an n x n array of a product
PRODUCT_SIZE_CAP = 4**6
# the dense N x N decompose of SecularSolver's set-up bounds complete_graph: 0.5 s and a
# 56 MiB peak at N = 1024, 3.5 s and 224 MiB at 2048; the graph's edge arrays hold 24 MiB
COMPLETE_SIZE_CAP = 1024

# The search layer's default coupling range and grid sizes.  They sit in this
# layer, which every command loads, so a config is checked without the engine.
GAMMA_RANGE_DEFAULT = (0.05, 3.0)
SCAN_POINTS_DEFAULT = 600
OPT_GAMMA_POINTS_DEFAULT = 200
OPT_T_POINTS_DEFAULT = 4000


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Directed graph with row-stochastic edge weights, compared by identity.

    ``edges`` holds the sources, targets and weights p(x, y) of the edges as
    read-only intp, intp and float64 arrays.  Construction raises ValueError
    naming the first edge with an endpoint that is not a real number, else the
    first with one that is not an integer in 0..n-1, else a pair given twice.
    Weights lie in (0, 1] and every row sums to one, which ``_tree`` checks
    once, so the arrays given become the graph's own and must not change.
    """

    n: int
    edges: tuple[np.ndarray, np.ndarray, np.ndarray]
    family: str
    params: dict = field(default_factory=dict)
    axis: "TransitionGraph | None" = None

    def __post_init__(self):
        _require_count("n", self.n, 1)
        ends = given = [np.asarray(column) for column in self.edges[:2]]
        p = np.asarray(self.edges[2], dtype=float)
        if not given[0].shape == given[1].shape == p.shape == (p.size,):
            raise ValueError("sources, targets and weights must be 1-d arrays of one length")
        if any(e.dtype.kind not in "biuf" for e in given):
            given = [e.astype(object) for e in given]
            # float() would read the string "1" as vertex 1
            real = np.array([[isinstance(v, numbers.Real) for v in e] for e in given], bool).all(axis=0)
            if not real.all():
                x, y = (e[real.argmin()] for e in given)
                raise ValueError(f"edge ({x!r},{y!r}) has an endpoint that is not a real number")
            # as floats, clipped to -1..n: each verdict below stays, and no big integer overflows
            ends = [np.fromiter((min(max(v, -1), self.n) for v in e), float, e.size) for e in given]
        # a NaN endpoint fails every comparison
        vertex = np.logical_and.reduce([(e >= 0) & (e < self.n) & (e == np.floor(e)) for e in ends])
        if not vertex.all():
            x, y = (e[vertex.argmin()] for e in given)
            raise ValueError(f"edge ({x},{y}) has an endpoint outside 0..{self.n - 1}")
        sources, targets = (e.astype(np.intp, copy=False) for e in ends)
        keys, counts = np.unique(sources * self.n + targets, return_counts=True)
        if counts.max(initial=0) > 1:
            x, y = divmod(int(keys[counts.argmax()]), self.n)
            raise ValueError(f"edge ({x},{y}) is given more than once")
        edges = sources.view(), targets.view(), p.view()
        for column in edges:
            column.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_weights(cls, n: int, weights: Mapping, family: str, params=None, axis=None) -> "TransitionGraph":
        """The graph with an edge (x, y) of weight p for each item of ``weights``, in its order."""
        ends = (np.fromiter((e[k] for e in weights), object, len(weights)) for k in (0, 1))
        return cls(n, (*ends, np.fromiter(weights.values(), float, len(weights))), family, params or {}, axis)

    @cached_property
    def weights(self) -> Mapping[tuple[int, int], float]:
        """Read-only view mapping each edge (x, y) to p(x, y), in ``edges`` order, built on first use."""
        sources, targets, p = (column.tolist() for column in self.edges)
        return MappingProxyType(dict(zip(zip(sources, targets), p)))

    def transition_matrix(self) -> np.ndarray:
        sources, targets, p = self.edges
        P = np.zeros((self.n, self.n))
        P[sources, targets] = p
        return P

    @cached_property
    def _tree(self) -> list[np.ndarray]:
        """Breadth-first tree from vertex 0 (see ``_bfs_tree``) of a graph checked to be a walk.

        Raises ValueError unless every weight lies in (0, 1], every row sums to
        one and the graph is strongly connected.  Each graph is checked once.
        """
        sources, targets, p = self.edges
        bad = np.flatnonzero(~((0.0 < p) & (p <= 1.0)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"edge weight p({sources[i]},{targets[i]})={p[i]} outside (0, 1]")
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

    @cached_property
    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """For each edge (x, y), the index of the edge (y, x), and whether it exists (else the index is arbitrary).

        Looked up once per graph, for the measure and the self-adjointness check.
        """
        sources, targets, _ = self.edges
        # the reverse of edge (x, y) is the edge whose key x n + y equals y n + x
        key, back_key = sources * self.n + targets, targets * self.n + sources
        order = np.argsort(key, kind="stable")
        back = order[np.minimum(np.searchsorted(key[order], back_key), key.size - 1)]
        return back, key[back] == back_key


@dataclass(frozen=True, eq=False)
class VertexMeasure:
    """Positive vertex weights satisfying detailed balance, with their total mass."""

    mu: np.ndarray
    volume: float


@dataclass(frozen=True, eq=False)
class Laplacian:
    """I - P of a graph, with a measure it is self-adjoint in; ``matrix`` is built on first use, read-only."""

    graph: TransitionGraph
    measure: VertexMeasure

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the ``_cells`` of I - P, in row-major order; every other cell is +0.0."""
        rows, cols, values = _cells(self.graph)
        # the keys are distinct, and a stable sort merges the sorted runs most graphs store in near-linear time
        order = np.argsort(rows * self.graph.n + cols, kind="stable")
        return rows[order], cols[order], values[order]

    @cached_property
    def matrix(self) -> np.ndarray:
        delta = np.zeros((self.graph.n, self.graph.n))
        rows, cols, values = _cells(self.graph)
        delta[rows, cols] = values
        delta.flags.writeable = False
        return delta


def _cells(g: TransitionGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the stored cells of I - P, the one statement of its entries.

    First each edge's cell (x == y) - p(x, y), in ``edges`` order, then a 1.0
    on the diagonal of each vertex with no self-loop, ascending.  Each cell
    has the bits of ``np.eye(n) - P`` there, and every cell not stored is +0.0.
    """
    sources, targets, p = g.edges
    loop = sources == targets
    bare = np.ones(g.n, dtype=bool)
    bare[sources[loop]] = False
    free = np.flatnonzero(bare)
    columns = (sources, free), (targets, free), (loop - p, np.ones(free.size))
    return tuple(np.concatenate(column) for column in columns)


def _require_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name}={value!r} must be an integer >= {least}")


def _positive_finite(value) -> bool:
    """Whether value is a real number above 0 and below infinity, and not a bool (False for NaN)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < math.inf


def _require_positive(name: str, value) -> None:
    if not _positive_finite(value):
        raise ValueError(f"{name}={value!r} must be positive and finite")


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
    edges = ([0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2], [1.0, 1.0 - p, p, p, 1.0 - p, 1.0])
    g = TransitionGraph(4, edges, "path", {"p": p})
    g._tree  # checks the walk
    return g


def complete_graph(n: int) -> TransitionGraph:
    """Complete graph on n >= 2 vertices with uniform transition weights."""
    _require_count("n", n, 2)
    if n > COMPLETE_SIZE_CAP:
        raise ValueError(f"complete graph on {n} vertices is above the cap {COMPLETE_SIZE_CAP}")
    # row-major, as permutations(range(n), 2) lists the pairs
    sources, targets = np.nonzero(~np.eye(n, dtype=bool))
    g = TransitionGraph(n, (sources, targets, np.full(sources.size, 1.0 / (n - 1))), "complete", {"N": n})
    g._tree  # checks the walk
    return g


def kolmogorov_measure(g: TransitionGraph) -> VertexMeasure:
    """Reversibility measure anchored at mu(0) = 1.

    Propagates mu(y) = mu(x) p(x, y) / p(y, x) along a breadth-first spanning
    tree from vertex 0, then verifies detailed balance on every edge.  Raises
    CycleInconsistency when the walk is not reversible.
    """
    sources, targets, p = g.edges
    back, reversible = g._reverse
    mu = np.full(g.n, np.nan)
    mu[0] = 1.0
    for level in g._tree:
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


def probabilistic_laplacian(g: TransitionGraph, measure: VertexMeasure | None = None) -> Laplacian:
    """I - P of g, checked to be self-adjoint under the measure (by default ``kolmogorov_measure(g)``)."""
    if measure is None:
        measure = kolmogorov_measure(g)
    _check_self_adjoint(g, measure.mu)
    return Laplacian(g, measure)


def _check_self_adjoint(g: TransitionGraph, mu: np.ndarray) -> None:
    """Raise CycleInconsistency unless M Delta, M = diag(mu), is symmetric within 1e-12 of its largest entry.

    M Delta is read from the ``_cells`` of Delta.  It is compared with its
    transpose at the edges alone: every other entry of both is an exact zero,
    and the diagonal is symmetric as it stands.
    """
    back, reversible = g._reverse
    rows, cols, values = _cells(g)
    m = back.size  # the first m cells are the edges', in ``edges`` order
    weighted = mu[rows] * values
    mirror = mu[cols[:m]] * np.where(reversible, values[back], 0.0)
    skew = float(np.abs(weighted[:m] - mirror).max(initial=0.0))
    scale = float(np.abs(weighted).max())
    if skew > 1e-12 * max(scale, 1.0):
        raise CycleInconsistency(f"M Delta is not symmetric (defect {skew:.3e}); measure inconsistent")


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


def _power_edges(axis: TransitionGraph, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sources, targets and weights of the edges of the d-fold Cartesian power of axis.

    First each axis edge's moves, with p/d for its p: axis by axis from the
    first (most significant), then in ``axis.edges`` order, from the vertices
    whose coordinate is the edge's source, ascending.  Then, ascending, one
    self-loop at each vertex where some axis has one: their p/d summed in axis order.
    """
    m, n = axis.n, axis.n**d
    vertices = np.arange(n)
    loops, looped = np.zeros(n), np.zeros(n, dtype=bool)
    runs = []
    for k in range(d):
        stride = m ** (d - 1 - k)
        digit = vertices // stride % m
        for a, b, p in zip(*(column.tolist() for column in axis.edges)):
            v = vertices[digit == a]
            if a == b:
                loops[v] += p / d
                looped[v] = True
            else:
                runs.append((v, v + (b - a) * stride, np.full(v.size, p / d)))
    v = vertices[looped]
    runs.append((v, v, loops[v]))
    return tuple(np.concatenate(column) for column in zip(*runs))


def _product_measure(g: TransitionGraph, d: int) -> VertexMeasure:
    """Measure of the d-fold Cartesian power of g: the product of g's measure over the axes."""
    mu = _power_outer(np.multiply, 1.0, [kolmogorov_measure(g).mu] * d)
    return VertexMeasure(mu, float(mu.sum()))


def cartesian_power(g: TransitionGraph, d: int) -> tuple[TransitionGraph, Laplacian, VertexMeasure]:
    """d-fold Cartesian power of g: each step moves along one axis, with weight p/d.

    Vertices are indexed lexicographically with the first factor most
    significant, and the edges are ``_power_edges``'s.  The Laplacian I - P
    of these edges is the 1/d-normalized Kronecker sum of g's Laplacian.
    The measure is the product of per-axis measures, so the volume is the
    per-axis volume raised to d.
    """
    _require_count("d", d, 1)
    d_max = PRODUCT_SIZE_CAP.bit_length() - 1  # the largest d with 2^d <= PRODUCT_SIZE_CAP
    # an axis of two or more vertices passes the cap within d_max + 1 steps
    n = g.n ** min(d, d_max + 1)
    if n > PRODUCT_SIZE_CAP:
        raise ValueError(f"product {g.n}^{d} has more vertices than the cap {PRODUCT_SIZE_CAP}")
    if d > d_max:  # a 1-vertex axis, whose power has one vertex but d steps to build
        raise ValueError(f"d={d} is above {d_max}, the largest exponent the cap {PRODUCT_SIZE_CAP} allows")

    params = {"d": d, "axis_n": g.n, "base": g.family, **g.params}
    gd = TransitionGraph(n, _power_edges(g, d), "product", params, axis=g)
    gd._tree  # checks the walk
    measure = _product_measure(g, d)
    return gd, probabilistic_laplacian(gd, measure), measure


@dataclass(frozen=True)
class InteriorMeasureProfile:
    """Measure statistics over interior lattice vertices plus a homogeneity verdict.

    Interior vertices are those whose coordinates all avoid the axis
    boundaries (axis vertices with a single out-neighbor).  The structure is
    homogeneous when every axis row is uniform over its out-neighbors, i.e.
    the walk is the simple unbiased one.  With no interior vertex, as on
    K_2, interior_min and interior_max are None.
    """

    interior_min: float | None
    interior_max: float | None
    interior_constant: bool
    homogeneous: bool


def interior_measure_profile(g: TransitionGraph) -> InteriorMeasureProfile:
    """Profile the reversibility measure of g over its interior vertices."""
    axis, d = _power_form(g)
    # the measure behind the volume; for a product, the one cartesian_power gives it
    mu = _product_measure(axis, d).mu

    sources, _, p = axis.edges
    out_degree = np.bincount(sources, minlength=axis.n)
    interior_mask = _power_outer(np.logical_and, True, [out_degree > 1] * d)
    interior = mu[interior_mask]
    if interior.size == 0:
        i_min = i_max = None
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
    )

