"""Indecomposables of the bounded derived category as shifted modules.

Every indecomposable is written canonically as ``V(beta)[s]`` with ``beta``
a positive root and ``s`` an integer: the objects at each shift are a copy
of the module category, so this form is unique, and the fundamental domain
of the orbit category is a range of shifts.  No grading is tabled: the
translation-quiver export reads each label's fine degree off its row index.

Everything here is root data of the bipartite quiver (Fomin-Reading,
math/0505085): P_i and I_i are e_i plus the heads, respectively the
tails, of the arrows at i, built once per bipartition by
``root_system._orientation``, and the inverse translate on dimension
vectors is the product of the reflections over the plus part and then
over the minus part.  ``quiver_rep`` builds the same data from modules
and is the witness the tests compare against.
"""

from __future__ import annotations

import sys
from itertools import chain, count, repeat, takewhile
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .root_system import Root, RootSystem, root_text

# The ``memoryview`` format of an unsigned lane of each width in bytes, in
# the order ``_lane_width`` tries them.
_LANES = {1: "B", 2: "H"}


class DerivedObject(NamedTuple):
    beta: Root
    shift: int

    def __str__(self) -> str:
        return f"V({root_text(self.beta)})[{self.shift}]"


def shift(x: DerivedObject, k: int) -> DerivedObject:
    return DerivedObject(x.beta, x.shift + k)


class DerivedCategory:
    """Computational context for one root system: translate, Hom
    dimensions, the bijection with the almost positive roots (onto shift
    0 and the injectives at shift -1) and the translation-quiver export.
    The dimension vectors of P_i and I_i, and their indexes, are those of
    the bipartition, shared through ``rs`` by every category on it, so a
    category builds nothing.  The translate and its inverse are evaluated
    on each call, so a caller pays only for what it asks.  A reducible
    system is the product of its components: Hom between them is 0 by the
    Euler form, and each translation-quiver row repeats with its own
    component's period."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.proj_dims: Tuple[Root, ...] = rs.proj_dims
        self.inj_dims: Tuple[Root, ...] = rs.inj_dims

    def _coxeter(self, first: Tuple[int, ...], second: Tuple[int, ...],
                 x: DerivedObject) -> DerivedObject:
        """``x`` with the reflections over the part ``first``, then over
        ``second``, applied to its root, which must stay positive."""
        rs = self.rs
        gamma = rs.reflect_part(second, rs.reflect_part(first, x.beta))
        if not rs.is_positive_root(gamma):
            raise RuntimeError(f"the translate of {x} left the positive roots (bug)")
        return DerivedObject(gamma, x.shift)

    def _euler_row(self, g: Root) -> List[int]:
        """The u with Euler form <g, d> = u . d: g less, at the head of each
        arrow of the bipartite quiver, the coefficient of g at its tail."""
        u = list(g)
        for s, t in self.rs.arrows:
            u[t] -= g[s]
        return u

    def _euler(self, g: Root, d: Root) -> int:
        """Euler form <g, d> of the bipartite quiver."""
        return sum(map(mul, self._euler_row(g), d))

    def euler_rows(self) -> Tuple[int, List[memoryview]]:
        """The Euler form on positive-root ids as packed rows, and their
        bias: lane d of row g is <g, d> + bias, for roots g and d in
        ``rs.positive_roots`` order.  Column k packs coordinate k of every
        root, one lane per root, so row g is bias in every lane plus
        u_k times column k summed over the n vertices, u = ``_euler_row(g)``:
        n big-integer multiply-adds, not one dot product per root.  The
        lanes are as wide as ``_euler_bound`` needs: each lane of a row
        holds a value in [0, 2 * bias), so the lanes are the row's digits
        and none carries into the next.  The bytes are in native order, so a
        ``memoryview`` cast of them reads lane d at index d."""
        roots = self.rs.positive_roots
        us = [self._euler_row(g) for g in roots]
        width, order = _lane_width(_euler_bound(us, roots)), sys.byteorder
        bias = 1 << (8 * width - 1)

        def packed(lanes: Iterable[int]) -> int:
            return int.from_bytes(b"".join(v.to_bytes(width, order) for v in lanes), order)

        cols = [packed(d[k] for d in roots) for k in range(self.rs.n)]
        biases = packed(repeat(bias, len(roots)))
        rows = []
        for u in us:
            row = biases
            for c, col in zip(u, cols):
                if c:
                    row += c * col
            rows.append(memoryview(row.to_bytes(width * len(roots), order)).cast(_LANES[width]))
        return bias, rows

    def euler_matrix(self) -> List[List[int]]:
        """The Euler form on positive-root ids: ``E[g][d]`` is ``_euler`` of
        roots ``g`` and ``d`` in ``rs.positive_roots`` order, read off the
        packed ``euler_rows``."""
        bias, rows = self.euler_rows()
        return [[v - bias for v in row] for row in rows]

    def _check(self, x: DerivedObject) -> None:
        if not self.rs.is_positive_root(x.beta):
            raise ValueError(f"{x.beta} is not a positive root")

    def tau(self, x: DerivedObject) -> DerivedObject:
        self._check(x)
        i = self.rs.proj_index.get(x.beta)
        if i is not None:
            return DerivedObject(self.inj_dims[i], x.shift - 1)
        return self._coxeter(self.rs.minus_order, self.rs.plus_order, x)

    def tau_inverse(self, x: DerivedObject) -> DerivedObject:
        self._check(x)
        i = self.rs.inj_index.get(x.beta)
        if i is not None:
            return DerivedObject(self.proj_dims[i], x.shift + 1)
        return self._coxeter(self.rs.plus_order, self.rs.minus_order, x)

    def hom(self, x: DerivedObject, y: DerivedObject) -> int:
        """Hom(V(beta)[s], V(gamma)[t]); hereditary, so supported only on
        shift differences 0 and 1.

        Between indecomposables of a Dynkin path algebra, Hom and Ext^1 are
        never both nonzero (the algebra is representation-directed and
        Ext^1(X, Y) = D Hom(Y, tau X)), so each is read off the Euler form:
        Hom = max(<beta, gamma>, 0) and Ext^1 = max(-<beta, gamma>, 0).
        ``quiver_rep.hom_dim`` on the reflection-functor modules computes
        the same numbers with exact rational linear algebra and is the
        witness the tests compare against."""
        self._check(x)
        self._check(y)
        diff = y.shift - x.shift
        if diff not in (0, 1):
            return 0
        e = self._euler(x.beta, y.beta)
        return max(e, 0) if diff == 0 else max(-e, 0)

    def V(self, alpha: Root) -> DerivedObject:
        """Bijection from almost positive roots onto the fundamental
        domain at m = 1: a positive root to its module at shift 0, and
        -alpha_i to the injective I_i at shift -1."""
        i = self.rs.negative_simple_index(alpha)
        if i is not None:
            return DerivedObject(self.inj_dims[i], -1)
        if not self.rs.is_positive_root(alpha):
            raise ValueError(f"{alpha} is not an almost positive root")
        return DerivedObject(alpha, 0)

    # -- translation-quiver export -------------------------------------

    def _zq_rows(self, coarse_min: int, coarse_max: int) -> List[Dict[int, DerivedObject]]:
        """Row i maps p to tau^p P_i, in ascending p, for each p whose
        coarse degree lies in the window.  tau^-1 is walked once from P_i,
        until P_i's root comes back as P_i[k] after T steps; tau^p P_i is
        then step -p mod T of that period, shifted by k * (-p div T).
        Coarse degree is nondecreasing in p, so each row steps out from 0
        in both directions, building each tau^p P_i once and stopping one
        past each end of the window."""
        rows = []
        for i in range(self.rs.n):
            period = [DerivedObject(self.proj_dims[i], 0)]
            while ((x := self.tau_inverse(period[-1])).beta != period[0].beta
                   and len(period) < len(self.rs.positive_roots)):
                period.append(x)
            if x.beta != period[0].beta or x.shift < 1:
                raise RuntimeError(f"tau^-1 never takes P_{i + 1} to P_{i + 1}[k], k >= 1 (bug)")

            def at(p: int) -> Tuple[int, DerivedObject]:
                q, r = divmod(-p, len(period))
                return p, shift(period[r], x.shift * q)
            down = takewhile(lambda v: -v[1].shift >= coarse_min, map(at, count(0, -1)))
            up = takewhile(lambda v: -v[1].shift <= coarse_max, map(at, count(1)))
            rows.append({p: y for p, y in chain(reversed(list(down)), up)
                         if coarse_min <= -y.shift <= coarse_max})
        return rows

    def export_zq_dot(self, coarse_min: int, coarse_max: int) -> str:
        """DOT digraph of the translation quiver restricted to a window of
        coarse degrees, written row by row.  Vertex (i,p) is tau^p P_i with
        fine degree dF(P_i) + 2p, dF(P_i) = 0 at a sink and -1 at a source.
        For each bipartite arrow s->t there is an edge (t,p)->(s,p) and an
        edge (s,p)->(t,p-1)."""
        rows = self._zq_rows(coarse_min, coarse_max)
        lines = ["digraph ZQ {"]
        for i, row in enumerate(rows):
            d = 0 if i in self.rs.I_minus else -1
            for p, obj in row.items():
                label = f"({i + 1},{p}) dF={d + 2 * p} {obj}"
                lines.append(f'  "v{i + 1}_p{p}" [label="{label}"];')
        for (s, t) in self.rs.arrows:
            for i in sorted((s, t)):
                for p in rows[i]:
                    if i == t and p in rows[s]:
                        lines.append(f'  "v{t + 1}_p{p}" -> "v{s + 1}_p{p}";')
                    if i == s and p - 1 in rows[t]:
                        lines.append(f'  "v{s + 1}_p{p}" -> "v{t + 1}_p{p - 1}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _euler_bound(us: Sequence[Sequence[int]], roots: Sequence[Root]) -> int:
    """A bound on |<g, d>| = |u_g . d| over the roots g and d, proved, not
    observed: the largest ||u_g||_1 times the largest coordinate of any
    root.  It is 174 on E8, and at most 122 (D32) on every other system
    up to rank 32."""
    return max(sum(map(abs, u)) for u in us) * max(map(max, roots))


def _lane_width(bound: int) -> int:
    """The bytes of the narrowest lane that holds every value v + bias with
    |v| <= ``bound``, bias half the lane's range, and so every coordinate
    of a root too."""
    for width in _LANES:
        if bound < 1 << (8 * width - 1):
            return width
    raise ValueError(f"Euler form bound {bound} fits no lane width")


def derived_category(rs: RootSystem) -> DerivedCategory:
    """The category of ``rs``, built once and kept in ``rs.memo`` so that it
    lives exactly as long as the root system does."""
    return rs.cached("derived", lambda: DerivedCategory(rs))
