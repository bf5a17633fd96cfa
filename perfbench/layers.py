"""Per-layer counters and times from the spans of one traced run.

A span's self time is its duration minus the union of its children's
intervals; children may overlap when a search function runs its grid on a
thread pool.  A layer's time is the sum of the self times of its spans, so
the four layer times add up to the traced ``main`` span on one thread.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

LAYERS = ("graphs", "spectral", "search", "cli")

# Computed floating-point operation counts of the LAPACK routines, leading
# terms only: a full symmetric eigendecomposition with vectors is about 9 n^3
# (Golub & Van Loan, sec. 8.3), a low-index subset about the 4/3 n^3 of its
# tridiagonal reduction.
FULL_SOLVE_FLOP = 9.0
PARTIAL_SOLVE_FLOP = 4.0 / 3.0

# One record of tracer.py; size is the matrix order of a solve or Laplacian,
# the grid length of a scan or curve, or None.
Span = namedtuple("Span", "id parent name layer kind start end size")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanTree:
    """Spans of one run indexed by id, with children and self times."""

    def __init__(self, spans: list[Span]):
        self.spans = {s.id: s for s in spans}
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def self_time(self, span: Span) -> float:
        kids = [(max(c.start, span.start), min(c.end, span.end)) for c in self.children[span.id]]
        return (span.end - span.start) - _union_length([k for k in kids if k[1] > k[0]])

    def descendants(self, span: Span):
        todo = list(self.children[span.id])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children[s.id])

    def owner(self, span: Span) -> Span | None:
        """Closest ancestor outside the spectral layer, or None."""
        parent = self.spans.get(span.parent)
        while parent is not None and parent.layer == "spectral":
            parent = self.spans.get(parent.parent)
        return parent


def layer_metrics(records: list[list]) -> dict[str, float]:
    """Every span-derived per-layer metric, keyed by its benchmark name."""
    spans = [Span(*r) for r in records]
    tree = SpanTree(spans)
    by_kind: dict[str, list[Span]] = defaultdict(list)
    layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        by_kind[s.kind].append(s)
        layer_self[s.layer] += tree.self_time(s)

    def self_sum(*kinds: str) -> float:
        return sum(tree.self_time(s) for k in kinds for s in by_kind[k])

    def duration(kind: str) -> float:
        return sum(s.end - s.start for s in by_kind[kind])

    solve_kinds = {"full_solve", "partial_solve"}
    scan_grid = root = 0
    for scan in by_kind["scan"]:
        solves = sum(1 for s in tree.descendants(scan) if s.kind in solve_kinds)
        grid = min(solves, scan.size or 0)
        scan_grid += grid
        root += solves - grid

    optimize_evals = curve_points = 0
    for opt in by_kind["optimize"]:
        evals = sum(1 for s in tree.descendants(opt) if s.kind == "decompose")
        optimize_evals += evals
        curve_points += evals * (opt.size or 0)
    curve_points += sum(s.size for s in by_kind["curve"])

    full = by_kind["full_solve"]
    partial = by_kind["partial_solve"]
    owners = [tree.owner(s) for s in full + partial]
    revalidate = sum(1 for o in owners if o is not None and o.kind == "row")
    total_self = sum(layer_self.values()) or 1.0
    metrics = {
        "graphs.build_calls": len(by_kind["build"]),
        "graphs.build_s": self_sum("build"),
        "graphs.measure_s": self_sum("measure"),
        "graphs.dense_mb_computed": sum(8.0 * s.size**2 for s in by_kind["build"] if s.size) / 1e6,
        "spectral.full_solves": len(full),
        "spectral.full_solve_s": duration("full_solve"),
        "spectral.partial_solves": len(partial),
        "spectral.partial_solve_s": duration("partial_solve"),
        "spectral.symmetrize_s": self_sum("symmetrize"),
        "spectral.validate_s": self_sum("validate"),
        "spectral.solve_flop_computed": sum(FULL_SOLVE_FLOP * s.size**3 for s in full)
        + sum(PARTIAL_SOLVE_FLOP * s.size**3 for s in partial),
        "search.scan_s": duration("scan"),
        "search.scan_grid_solves": scan_grid,
        "search.root_solves": root,
        "search.optimize_s": duration("optimize"),
        "search.optimize_gamma_evals": optimize_evals,
        "search.optimize_self_s": self_sum("optimize"),
        "search.curve_points": curve_points,
        "cli.self_s": self_sum("main", "row"),
        "cli.emit_s": self_sum("emit"),
        "cli.revalidate_solves": revalidate,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / total_self
    return metrics


# Counters that must repeat exactly between traced runs of the same inputs.
COUNTS = (
    "graphs.build_calls",
    "spectral.full_solves",
    "spectral.partial_solves",
    "search.scan_grid_solves",
    "search.root_solves",
    "search.optimize_gamma_evals",
    "search.curve_points",
    "cli.revalidate_solves",
    "trace.spans",
)
