"""Labeled polytopes for the path machinery: construction, vertices, pivoting.

Three constraint systems share one representation: the row player's polytope
over (y, pi1), the lifted column polytope over (x, lambda, pi2), and its
rank-k generalization over (x, lambda_1..lambda_k, pi2). Inequalities carry
the labels 1..m+n (rows of player 1 first, then columns of player 2); each
polytope additionally has the single probability equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import (
    ConstantBeta,
    DegeneratePolytope,
    DependentBetas,
    DimensionMismatch,
    Singular,
    TooLarge,
    ZeroBeta,
)
from .linalg import (
    Matrix,
    Rat,
    Vec,
    frac,
    matrix_rank,
    solve_linear_system,
    vadd,
    vdot,
    vector,
    vscale,
)


@dataclass(frozen=True)
class Vertex:
    """Basic feasible point keyed by its defining tight-row set."""

    coords: Vec
    basis: frozenset[int]
    labels: frozenset[int]


@dataclass(frozen=True)
class EdgeDescriptor:
    """One-dimensional face reached by relaxing one inequality at a vertex.

    Points are ``base.coords + t * direction`` for t in [0, t_max], with
    t_max None on unbounded edges.
    """

    base: Vertex
    relaxed: int
    direction: Vec
    t_max: Optional[Rat]
    far_end: Optional[Vertex]

    @property
    def unbounded(self) -> bool:
        return self.t_max is None

    @property
    def tight_set(self) -> frozenset[int]:
        return self.base.basis - {self.relaxed}

    def point_at(self, t: Rat) -> Vec:
        return vadd(self.base.coords, vscale(t, self.direction))


class Polytope:
    """Inequalities ``a . z <= b`` labeled 1..m+n plus one equality row."""

    def __init__(self, which: str, dim: int, ineqs: Sequence[tuple[Vec, Rat]],
                 eq: tuple[Vec, Rat], m: int, n: int):
        self.which = which
        self.dim = dim
        self.ineqs = tuple((vector(a), frac(b)) for a, b in ineqs)
        self.eq = (vector(eq[0]), frac(eq[1]))
        self.m = m
        self.n = n

    @property
    def n_labels(self) -> int:
        return len(self.ineqs)

    @property
    def basis_size(self) -> int:
        return self.dim - 1  # one equality is always active

    def row(self, label: int) -> tuple[Vec, Rat]:
        if not 1 <= label <= self.n_labels:
            raise IndexError(f"label {label} out of 1..{self.n_labels}")
        return self.ineqs[label - 1]

    def slack(self, label: int, point: Sequence[Fraction]) -> Rat:
        a, b = self.row(label)
        return b - vdot(a, point)

    def labels_at(self, point: Sequence[Fraction]) -> frozenset[int]:
        return frozenset(
            lab for lab in range(1, self.n_labels + 1) if self.slack(lab, point) == 0
        )

    def feasible(self, point: Sequence[Fraction]) -> bool:
        ea, eb = self.eq
        if vdot(ea, point) != eb:
            return False
        return all(self.slack(lab, point) >= 0 for lab in range(1, self.n_labels + 1))

    def _basis_point(self, basis: Iterable[int]) -> Vec:
        rows = [self.eq[0]] + [self.row(lab)[0] for lab in basis]
        rhs = [self.eq[1]] + [self.row(lab)[1] for lab in basis]
        return solve_linear_system(Matrix(rows), rhs)

    def try_vertex(self, basis: Iterable[int]) -> Optional[Vertex]:
        """Vertex for a basis, or None when singular or infeasible."""
        basis = frozenset(basis)
        if len(basis) != self.basis_size:
            raise DimensionMismatch(
                f"basis size {len(basis)} != {self.basis_size} for {self.which}"
            )
        try:
            point = self._basis_point(sorted(basis))
        except Singular:
            return None
        if not self.feasible(point):
            return None
        return Vertex(point, basis, self.labels_at(point))

    def vertex_from_basis(self, basis: Iterable[int]) -> Vertex:
        v = self.try_vertex(basis)
        if v is None:
            raise DegeneratePolytope(f"basis {sorted(basis)} is not a feasible vertex")
        return v

    def null_direction(self, tight: Iterable[int], leaving: int) -> Vec:
        """Edge direction keeping ``tight`` rows tight, moving off ``leaving``."""
        rows = [self.eq[0]] + [self.row(lab)[0] for lab in sorted(tight)]
        rows.append(self.row(leaving)[0])
        rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(-1)]
        return solve_linear_system(Matrix(rows), rhs)

    def _min_ratio(self, point: Sequence[Fraction], direction: Vec,
                   tight: frozenset[int]) -> tuple[Optional[Rat], Optional[int]]:
        """Shortest step from ``point`` along ``direction`` to a row outside ``tight``.

        Returns the step and the row that becomes tight, or (None, None) when
        no row bounds the ray. A zero step or a tie is degenerate.
        """
        best_t: Optional[Rat] = None
        hits: list[int] = []
        for lab in range(1, self.n_labels + 1):
            if lab in tight:
                continue
            rate = vdot(self.row(lab)[0], direction)
            if rate <= 0:
                continue
            t = self.slack(lab, point) / rate
            if best_t is None or t < best_t:
                best_t, hits = t, [lab]
            elif t == best_t:
                hits.append(lab)
        if best_t == 0:
            raise DegeneratePolytope(f"extra tight row {hits[0]} leaving {sorted(tight)}")
        if len(hits) > 1:
            raise DegeneratePolytope(f"ratio tie between rows {hits} leaving {sorted(tight)}")
        return best_t, hits[0] if hits else None

    def pivot(self, vertex: Vertex, relax: int) -> EdgeDescriptor:
        """Exact ratio test along the edge obtained by relaxing one basis row."""
        if relax not in vertex.basis:
            raise ValueError(f"label {relax} not in basis {sorted(vertex.basis)}")
        kept = vertex.basis - {relax}
        direction = self.null_direction(kept, relax)
        best_t, hit = self._min_ratio(vertex.coords, direction, vertex.basis)
        if best_t is None:
            return EdgeDescriptor(vertex, relax, direction, None, None)
        far_coords = vadd(vertex.coords, vscale(best_t, direction))
        far_basis = kept | {hit}
        far = Vertex(far_coords, far_basis, self.labels_at(far_coords))
        if len(far.labels) > self.basis_size:
            raise DegeneratePolytope(
                f"vertex {sorted(far_basis)} has {len(far.labels)} tight rows"
            )
        return EdgeDescriptor(vertex, relax, direction, best_t, far)

    def edge_through_point(self, tight: Iterable[int], point: Sequence[Fraction],
                           direction: Vec) -> EdgeDescriptor:
        """Maximal edge through an interior point with the given tight rows.

        ``direction`` is a nonzero vector along the edge (it keeps the equality
        and the ``tight`` rows). The bounded endpoint (lexicographically
        smallest basis when both ends are bounded) becomes the base vertex of
        the returned edge.
        """
        tight = frozenset(tight)
        point = vector(point)
        t_pos, lab_pos = self._min_ratio(point, direction, tight)
        t_neg, lab_neg = self._min_ratio(point, vscale(-1, direction), tight)
        if t_pos is None and t_neg is None:
            raise DegeneratePolytope("edge is a full line; polytope not pointed")

        def end_vertex(t: Rat, lab: int, d: Vec) -> Vertex:
            coords = vadd(point, vscale(t, d))
            basis = tight | {lab}
            vert = Vertex(coords, basis, self.labels_at(coords))
            if len(vert.labels) > self.basis_size:
                raise DegeneratePolytope(f"degenerate edge endpoint {sorted(basis)}")
            return vert

        pos_v = end_vertex(t_pos, lab_pos, direction) if t_pos is not None else None
        neg_v = end_vertex(t_neg, lab_neg, vscale(-1, direction)) if t_neg is not None else None
        # Anchor at the negative-side endpoint so the stored direction is +direction.
        if neg_v is not None and pos_v is not None and sorted(neg_v.basis) > sorted(pos_v.basis):
            neg_v, pos_v = pos_v, neg_v
            t_neg, t_pos = t_pos, t_neg
            direction = vscale(-1, direction)
        if neg_v is None:
            neg_v, pos_v = pos_v, None
            t_neg, t_pos = t_pos, None
            direction = vscale(-1, direction)
        base = neg_v
        relaxed = next(iter(base.basis - tight))
        t_total = None if pos_v is None else t_pos + t_neg
        return EdgeDescriptor(base, relaxed, direction, t_total, pos_v)


def build_p(a: Matrix) -> Polytope:
    """Best-response polytope of the row player over (y, pi1)."""
    m, n = a.rows, a.cols
    ineqs: list[tuple[Vec, Rat]] = []
    for i in range(m):
        ineqs.append((tuple(a.row(i)) + (Fraction(-1),), Fraction(0)))
    for j in range(n):
        row = [Fraction(0)] * (n + 1)
        row[j] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    eq = (vector([1] * n + [0]), Fraction(1))
    return Polytope("P", n + 1, ineqs, eq, m, n)


def build_qprime(c: Matrix, beta: Sequence[Fraction]) -> Polytope:
    """Lifted column-player polytope over (x, lambda, pi2)."""
    beta = vector(beta)
    if all(b == 0 for b in beta):
        raise ZeroBeta("beta must be nonzero")
    m, n = c.rows, c.cols
    if len(beta) != n:
        raise DimensionMismatch("beta length differs from column count")
    ineqs: list[tuple[Vec, Rat]] = []
    for i in range(m):
        row = [Fraction(0)] * (m + 2)
        row[i] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    for j in range(n):
        ineqs.append((tuple(c.col(j)) + (beta[j], Fraction(-1)), Fraction(0)))
    eq = (vector([1] * m + [0, 0]), Fraction(1))
    return Polytope("Qprime", m + 2, ineqs, eq, m, n)


def build_qprime_k(a: Matrix, betas: Sequence[Sequence[Fraction]]) -> Polytope:
    """Rank-k lifted polytope over (x, lambda_1..lambda_k, pi2)."""
    betas = tuple(vector(b) for b in betas)
    k = len(betas)
    if matrix_rank(Matrix(betas)) != k:
        raise DependentBetas("beta vectors are linearly dependent")
    m, n = a.rows, a.cols
    ineqs: list[tuple[Vec, Rat]] = []
    for i in range(m):
        row = [Fraction(0)] * (m + k + 1)
        row[i] = Fraction(-1)
        ineqs.append((tuple(row), Fraction(0)))
    for j in range(n):
        coeffs = [-x for x in a.col(j)] + [betas[l][j] for l in range(k)] + [Fraction(-1)]
        ineqs.append((tuple(coeffs), Fraction(0)))
    eq = (vector([1] * m + [0] * (k + 1)), Fraction(1))
    return Polytope("QprimeK", m + k + 1, ineqs, eq, m, n)


def _unique_arg_extreme(values: Sequence[Fraction], want_max: bool) -> int:
    best = max(values) if want_max else min(values)
    idxs = [i for i, v in enumerate(values) if v == best]
    if len(idxs) > 1:
        raise DegeneratePolytope(f"tied extreme entries at positions {idxs}")
    return idxs[0]


def _endpoint_indices(a: Matrix, beta: Vec) -> tuple[int, int, int, int]:
    """0-based (i_s, j_s, i_e, j_e): best rows of the min- and max-beta columns."""
    if all(b == beta[0] for b in beta):
        raise ConstantBeta("beta is constant; no distinct path endpoints")
    j_s = _unique_arg_extreme(beta, want_max=False)
    j_e = _unique_arg_extreme(beta, want_max=True)
    i_s = _unique_arg_extreme(a.col(j_s), want_max=True)
    i_e = _unique_arg_extreme(a.col(j_e), want_max=True)
    return i_s, j_s, i_e, j_e


class GameFamily:
    """Shared-row-player game family: fixed a, c, beta with free row weights.

    Bundles the two polytopes, and builds the path's two rays, for everything
    downstream.
    """

    def __init__(self, a: Matrix, c: Matrix, beta: Sequence[Fraction]):
        if (a.rows, a.cols) != (c.rows, c.cols):
            raise DimensionMismatch("a and c differ in shape")
        self.a = a
        self.c = c
        self.beta = vector(beta)
        self.m, self.n = a.rows, a.cols
        self.p = build_p(a)
        self.qp = build_qprime(c, self.beta)
        self.rank1 = c == a.scale(-1)

    def game_at(self, alpha: Sequence[Fraction]):
        from .games import BimatrixGame

        return BimatrixGame(self.a, self.c + Matrix.outer(alpha, self.beta))

    def ray(self, high: bool) -> tuple[Vertex, EdgeDescriptor]:
        """Pure vertex of P and unbounded edge of Q' on one ray of the path.

        Column j has the least beta on the low ray (lambda -> -inf) and the
        greatest on the high ray; i is its best row. At x = e_i the column-j
        row stays tight along (0, .., 0, 1, beta_j). Past every column ratio,
        at lambda = delta, that line is inside the ray, so the ratio test from
        there finds the ray's lambda bound and bounding column. The returned
        edge is based at that bound.
        """
        i_s, j_s, i_e, j_e = _endpoint_indices(self.a, self.beta)
        i, j = (i_e, j_e) if high else (i_s, j_s)
        m, n, b_j = self.m, self.n, self.beta[j]
        y = tuple(Fraction(int(col == j)) for col in range(n)) + (self.a[i, j],)
        v_labels = self.p.labels_at(y)
        gap = min(abs(b - b_j) for b in self.beta if b != b_j)
        c_max = max(abs(x) for row in range(m) for x in self.c.row(row))
        delta = (2 * c_max / gap + 1) * (1 if high else -1)
        x = tuple(Fraction(int(row == i)) for row in range(m))
        tight = frozenset(row + 1 for row in range(m) if row != i) | {m + j + 1}
        point = x + (delta, self.c[i, j] + b_j * delta)
        direction = (Fraction(0),) * m + (Fraction(1), b_j)
        ed = self.qp.edge_through_point(tight, point, direction)
        return Vertex(y, v_labels, v_labels), ed

    def lambda_of(self, w: Vertex) -> Rat:
        return w.coords[self.m]

    def y_of(self, v: Vertex) -> Vec:
        return v.coords[: self.n]


class RankKFamily:
    """Rank-k analogue: fixed a and k independent betas over (x, lambdas, pi2)."""

    def __init__(self, a: Matrix, betas: Sequence[Sequence[Fraction]]):
        self.a = a
        self.betas = tuple(vector(b) for b in betas)
        self.k = len(self.betas)
        self.m, self.n = a.rows, a.cols
        self.p = build_p(a)
        self.qk = build_qprime_k(a, self.betas)

    def game_at(self, alphas: Sequence[Sequence[Fraction]]):
        from .games import BimatrixGame

        b = self.a.scale(-1)
        for alpha, beta in zip(alphas, self.betas):
            b = b + Matrix.outer(alpha, beta)
        return BimatrixGame(self.a, b)


def basis_count(poly: Polytope) -> int:
    return comb(poly.n_labels, poly.basis_size)


def enumerate_vertices(poly: Polytope, guard: int = 10**6) -> list[Vertex]:
    """All basic feasible points by exhaustive basis enumeration (guarded)."""
    if basis_count(poly) > guard:
        raise TooLarge(f"{basis_count(poly)} bases exceeds guard {guard}")
    seen: dict[Vec, Vertex] = {}
    for combo in combinations(range(1, poly.n_labels + 1), poly.basis_size):
        v = poly.try_vertex(combo)
        if v is not None and v.coords not in seen:
            seen[v.coords] = v
    return list(seen.values())


def check_nondegenerate(poly: Polytope, guard: int = 10**6) -> bool:
    """True when no basic feasible point has extra tight rows (exhaustive, guarded)."""
    if basis_count(poly) > guard:
        raise TooLarge(f"{basis_count(poly)} bases exceeds guard {guard}")
    for combo in combinations(range(1, poly.n_labels + 1), poly.basis_size):
        v = poly.try_vertex(combo)
        if v is not None and len(v.labels) > poly.basis_size:
            return False
    return True
