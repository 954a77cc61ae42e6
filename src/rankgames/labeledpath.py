"""Fully-labeled vertex pairs, their signs, and alternating path traversal.

A node pairs a vertex of the row polytope with a vertex of the lifted column
polytope so that together they carry every label 1..m+n; exactly one label is
shared (the duplicate). Relaxing the duplicate on either side yields the two
incident edges, so the pairs form paths and cycles. Node signs orient the
traversal, and they alternate along every path and cycle (Shapley 1974).

A step is one ``Polytope.pivot``, an integer pivot on the moving vertex's
tableau, so the walk solves no linear system and takes no determinant: the
far node takes the sign opposite to its near node's. Only a walk's start
takes its sign from the determinants of the two tight-constraint systems
(``node_sign``): the low ray's node, a section edge's two nodes
(``oriented_edge``) and a cycle's seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .errors import (
    DegeneratePolytope,
    MultipleDuplicates,
    NotFullyLabeled,
    RankGamesError,
    SeedOnPath,
    StepBudgetExceeded,
)
from .linalg import Rat, Vec, integer_determinant, sign, vdot
from .polytope import EdgeDescriptor, GameFamily, Polytope, Vertex

V_FIXED = "v_fixed"  # vertex of P fixed, edge moves in Q'
W_FIXED = "w_fixed"  # vertex of Q' fixed, edge moves in P
FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True, init=False)
class PathNode:
    """A fully-labeled pair (v, w) with its duplicate label and its sign.
    Each step makes one, so the constructor fills the instance dict in one
    update."""

    v: Vertex
    w: Vertex
    duplicate: int
    sign: int

    def __init__(self, v: Vertex, w: Vertex, duplicate: int, sign: int):
        self.__dict__.update(v=v, w=w, duplicate=duplicate, sign=sign)

    def key(self) -> tuple[frozenset[int], frozenset[int]]:
        return (self.v.basis, self.w.basis)


@dataclass(frozen=True, init=False)
class PathEdge:
    """Oriented edge of the fully-labeled set.

    ``moving`` parametrizes the non-fixed side from its base vertex; ``tail``
    and ``head`` are the endpoint nodes in orientation order (None marks the
    open end of an unbounded edge). ``direction`` records whether increasing
    edge parameter runs tail-to-head (forward) or head-to-tail (backward).
    As ``PathNode``, it fills its instance dict in one update.
    """

    kind: str
    fixed: Vertex
    moving: EdgeDescriptor
    tail: Optional[PathNode]
    head: Optional[PathNode]
    direction: str

    def __init__(self, kind: str, fixed: Vertex, moving: EdgeDescriptor,
                 tail: Optional[PathNode], head: Optional[PathNode], direction: str):
        self.__dict__.update(kind=kind, fixed=fixed, moving=moving, tail=tail, head=head,
                             direction=direction)

    def key(self) -> tuple[str, frozenset[int], frozenset[int]]:
        return (self.kind, self.fixed.basis, self.moving.tight_set)

    def point_at(self, t: Rat) -> tuple[Vec, Vec]:
        """(v_coords, w_coords) of the pair at edge parameter t."""
        moving = self.moving.point_at(t)
        if self.kind == V_FIXED:
            return self.fixed.coords, moving
        return moving, self.fixed.coords


@dataclass(frozen=True)
class ComponentTrace:
    kind: str  # "path" | "cycle"
    nodes: tuple[PathNode, ...]
    edges: tuple[PathEdge, ...]


def step_budget(m: int, n: int) -> int:
    """Hard cap exceeding the number of vertex pairs; crossing it is a bug."""
    return comb(m + n, n) * comb(m + n + 1, m + 1)


def _tight_determinant(poly: Polytope, labels: list[int], order: list[int]) -> int:
    """Determinant of the equality row and the rows of ``labels``, taken from
    the polytope's integer rows with the columns in ``order``."""
    rows = [poly.int_rows[0], *(poly.int_rows[lab] for lab in labels)]
    return integer_determinant([[row[col] for col in order] for row in rows])


def node_sign(family: GameFamily, v: Vertex, w: Vertex, duplicate: int) -> int:
    """Sign of the pair from the two tight-system determinants.

    Only a walk's start node takes it (``make_node``); a step gives its far
    node the opposite of its near node's sign.

    The full systems, of order n + 1 in P and m + 2 in Q', order their blocks:
    shared strategy sets ascending, the duplicate's unit row or column in its
    own slot between the payoff block and the identity block. Determinant
    signs are invariant under the orderings that move rows and columns of
    both systems together, so this choice is canonical; the positive scale of
    each integer row leaves them unchanged too.

    Each sign row (y_j >= 0 in P, x_i >= 0 in Q', the duplicate's included)
    has one entry, -1, and is expanded away by Laplace. Bareiss runs on the
    bordered support matrix that is left, taken from the polytope's integer
    rows: the equality and v's tight payoff rows over (y_supp, pi1) in P, the
    equality and w's tight column rows over (lambda, x_supp, pi2) in Q'.
    Each identity-block row sits one place below its column, so its
    cofactor sign cancels its -1. The duplicate's row comes right after the
    payoff block, so its cofactor sign and its -1 give (-1)^later, where
    ``later`` counts the labels of its block (X or Y) past the duplicate.
    """
    m, n = family.m, family.n
    big_x = sorted(lab for lab in v.labels if lab <= m)
    big_y = sorted(lab for lab in w.labels if lab > m)
    det_v = _tight_determinant(
        family.p, big_x, [lab - m - 1 for lab in big_y if lab != duplicate] + [n]
    )
    det_w = _tight_determinant(
        family.qp, big_y, [m] + [lab - 1 for lab in big_x if lab != duplicate] + [m + 1]
    )
    later = sum(lab > duplicate for lab in (big_x if duplicate <= m else big_y))
    s = sign(det_v * det_w) * (-1) ** later
    if s == 0:
        raise DegeneratePolytope("singular tight system at a fully-labeled pair")
    return s


def _duplicate(family: GameFamily, v: Vertex, w: Vertex) -> int:
    """Validate full labeling and return the one shared label."""
    union, size = v.labels | w.labels, family.m + family.n
    if len(union) != size:  # every label is one of 1..m+n
        missing = [lab for lab in range(1, size + 1) if lab not in union]
        raise NotFullyLabeled(f"missing labels {missing}")
    shared = v.labels & w.labels
    if len(shared) != 1:
        raise MultipleDuplicates(f"shared labels {sorted(shared)}")
    return next(iter(shared))


def make_node(family: GameFamily, v: Vertex, w: Vertex) -> PathNode:
    """Validate full labeling, find the duplicate, and attach the sign."""
    dup = _duplicate(family, v, w)
    return PathNode(v, w, dup, node_sign(family, v, w, dup))


def step(family: GameFamily, node: PathNode, side: str) -> tuple[PathEdge, Optional[PathNode]]:
    """Relax the duplicate in one polytope; return the edge and its far node.

    side 'P' pivots the row polytope (edge type (E_w, w)); side 'Q' pivots the
    lifted polytope (type (v, E_v)). A None far node marks an unbounded edge,
    which only occurs on the two path rays. The far node's sign is -node.sign.
    """
    if side == "P":
        ed = family.p.pivot(node.v, node.duplicate)
        if ed.unbounded:
            raise RankGamesError("unexpected unbounded edge in the row polytope")
        kind, fixed, v, w = W_FIXED, node.w, ed.far_end, node.w
    elif side == "Q":
        ed = family.qp.pivot(node.w, node.duplicate)
        if ed.unbounded:
            return PathEdge(V_FIXED, node.v, ed, node, None, FORWARD), None
        kind, fixed, v, w = V_FIXED, node.v, node.v, ed.far_end
    else:
        raise ValueError(f"side must be 'P' or 'Q', got {side!r}")
    far = PathNode(v, w, _duplicate(family, v, w), -node.sign)
    return PathEdge(kind, fixed, ed, node, far, FORWARD), far


def walk(family: GameFamily, first: PathNode) -> Iterator[PathEdge]:
    """Edges in orientation order from ``first``; each edge's head is its far node.

    A positive sign directs the P-side relaxation away from the node. The walk
    ends after a ray (head None) or on the edge that returns to ``first``.
    """
    budget = step_budget(family.m, family.n)
    node = first
    for _ in range(budget):
        edge, node = step(family, node, "P" if node.sign > 0 else "Q")
        yield edge
        if node is None or node.key() == first.key():
            return
    raise StepBudgetExceeded(f"more than {budget} steps from one node")


def trace_path(family: GameFamily) -> ComponentTrace:
    """The unique path, oriented from the low ray to the high ray.

    The walk starts at the low ray's bounding node (``GameFamily.ray``); its
    last edge must be the high ray, checked against ``GameFamily.ray_bases``.
    """
    v_s, ray_s = family.ray(high=False)
    v_e, w_e, _ = family.ray_bases(high=True)
    low = oriented_edge(family, V_FIXED, v_s, ray_s)
    if low.head is None:
        raise RankGamesError("start node sign is not +1; orientation broken")
    edges = [low, *walk(family, low.head)]
    if edges[-1].head is not None:
        raise RankGamesError("path returned to its start node; traversal is broken")
    if edges[-1].fixed.basis != v_e:
        raise RankGamesError("path did not terminate at the high-ray vertex")
    if edges[-1].moving.base.basis != w_e:
        raise RankGamesError("high ray does not start at its lambda bound")
    nodes = tuple(edge.head for edge in edges[:-1])
    return ComponentTrace("path", nodes, tuple(edges))


def trace_cycle(family: GameFamily, seed: PathNode) -> ComponentTrace:
    """Closed alternating traversal from a node that is not on the path."""
    edges = tuple(walk(family, seed))
    if edges[-1].head is None:
        raise SeedOnPath("seed lies on the path, not on a cycle")
    nodes = (seed,) + tuple(edge.head for edge in edges[:-1])
    return ComponentTrace("cycle", nodes, edges)


def oriented_edge(
    family: GameFamily, kind: str, fixed: Vertex, ed: EdgeDescriptor
) -> PathEdge:
    """Orient an edge found off the walk by the signs of its endpoint nodes.

    Moving edges of type (v, E_v) point at their +1 node, edges of type
    (E_w, w) at their -1 node; rays put the infinite end opposite the single
    bounding node. Both nodes take their signs from ``node_sign``, so a walk
    from the head starts from a sign found in the polytopes' rows.
    """
    def node(u: Vertex) -> PathNode:
        return make_node(family, fixed, u) if kind == V_FIXED else make_node(family, u, fixed)

    head_sign = 1 if kind == V_FIXED else -1
    base_node = node(ed.base)
    far_node = node(ed.far_end) if ed.far_end else None
    if far_node is None:
        if base_node.sign == head_sign:
            return PathEdge(kind, fixed, ed, None, base_node, BACKWARD)
        return PathEdge(kind, fixed, ed, base_node, None, FORWARD)
    if base_node.sign == far_node.sign:
        raise RankGamesError("edge endpoints share a sign; orientation broken")
    if far_node.sign == head_sign:
        return PathEdge(kind, fixed, ed, base_node, far_node, FORWARD)
    return PathEdge(kind, fixed, ed, far_node, base_node, BACKWARD)


def g_at(family: GameFamily, v_coords: Vec, w_coords: Vec) -> Rat:
    """Path coordinate beta . y + lambda of a (v, w) point."""
    return vdot(family.beta, v_coords[: family.n]) + w_coords[family.m]


def _fmt_labels(labels: frozenset[int]) -> str:
    return ",".join(str(x) for x in sorted(labels))


def export_lines(family: GameFamily, trace: ComponentTrace) -> list[str]:
    """Line-oriented trace records with exact rationals."""
    lines = [f"trace kind={trace.kind} nodes={len(trace.nodes)} edges={len(trace.edges)}"]

    def lam_str(edge: PathEdge) -> str:
        m = family.m
        if edge.kind == W_FIXED:
            return str(edge.fixed.coords[m])
        lo = edge.moving.base.coords[m]
        if edge.moving.unbounded:
            rate = edge.moving.direction[m]
            return f"[{lo},+inf)" if rate > 0 else f"(-inf,{lo}]"
        hi = edge.moving.far_end.coords[m]
        lo, hi = min(lo, hi), max(lo, hi)
        return f"[{lo},{hi}]"

    edge_iter = iter(trace.edges)
    if trace.kind == "path":
        first = next(edge_iter)
        lines.append(
            f"edge kind={first.kind} fixed={_fmt_labels(first.fixed.basis)} "
            f"tight={_fmt_labels(first.moving.tight_set)} lambda={lam_str(first)}"
        )
    for node, edge in zip(trace.nodes, edge_iter):
        lines.append(
            f"node v={_fmt_labels(node.v.basis)} w={_fmt_labels(node.w.basis)} "
            f"dup={node.duplicate} sign={'+1' if node.sign > 0 else '-1'} "
            f"lambda={family.lambda_of(node.w)}"
        )
        lines.append(
            f"edge kind={edge.kind} fixed={_fmt_labels(edge.fixed.basis)} "
            f"tight={_fmt_labels(edge.moving.tight_set)} lambda={lam_str(edge)}"
        )
    return lines
