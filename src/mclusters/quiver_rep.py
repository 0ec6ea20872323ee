"""Representations of the bipartite quiver, reflection functors, and
Hom/Ext^1 dimensions over the rationals.

Indecomposables are constructed for each positive root by walking the
dimension vector to a projective with the Coxeter transformation and then
applying the inverse Coxeter functor the recorded number of times, so the
matrices are deterministic.

The derived and orbit categories do not use these modules: between
indecomposables, Hom and Ext^1 come from the Euler form (see
``DerivedCategory.hom``).  The modules here, with Hom computed exactly by
``Fraction`` linear algebra, are the witness that the tests check the
closed form against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .linalg import Mat, left_nullspace, nullspace, rank_of_rows, vstack
from .root_system import Root, RootSystem

Arrow = Tuple[int, int]


@dataclass(frozen=True)
class BipartiteQuiver:
    n: int
    arrows: Tuple[Arrow, ...]

    @staticmethod
    def from_root_system(rs: RootSystem) -> "BipartiteQuiver":
        arrows = []
        for i, j in rs.edges:
            if i in rs.I_plus:
                arrows.append((i, j))
            else:
                arrows.append((j, i))
        return BipartiteQuiver(rs.n, tuple(arrows))


@dataclass(frozen=True)
class Representation:
    """Per-vertex dimensions with one rational matrix per arrow.

    ``arrows`` may differ from the bipartite orientation while reflection
    functors are being applied; finished indecomposables always carry the
    bipartite arrows.
    """

    dims: Tuple[int, ...]
    arrows: Tuple[Arrow, ...]
    maps: Tuple[Mat, ...]
    reflection_sequence: Tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if len(self.maps) != len(self.arrows):
            raise ValueError("one map per arrow required")
        for (s, t), m in zip(self.arrows, self.maps):
            if (m.nrows, m.ncols) != (self.dims[t], self.dims[s]):
                raise ValueError(f"map for arrow {s}->{t} has shape {(m.nrows, m.ncols)}, "
                                 f"expected {(self.dims[t], self.dims[s])}")


def _one_hot_rep(q: BipartiteQuiver, dims: Sequence[int], hot: Dict[Arrow, Mat]) -> Representation:
    maps = []
    for a in q.arrows:
        s, t = a
        maps.append(hot.get(a, Mat.zeros(dims[t], dims[s])))
    return Representation(tuple(dims), q.arrows, tuple(maps))


def projective(q: BipartiteQuiver, i: int) -> Representation:
    """Projective at vertex i: the simple for a sink, otherwise supported
    on i and its targets with identity arrow maps."""
    dims = [0] * q.n
    dims[i] = 1
    hot: Dict[Arrow, Mat] = {}
    for (s, t) in q.arrows:
        if s == i:
            dims[t] += 1
            hot[(s, t)] = Mat.identity(1)
    return _one_hot_rep(q, dims, hot)


def injective(q: BipartiteQuiver, i: int) -> Representation:
    dims = [0] * q.n
    dims[i] = 1
    hot: Dict[Arrow, Mat] = {}
    for (s, t) in q.arrows:
        if t == i:
            dims[s] += 1
            hot[(s, t)] = Mat.identity(1)
    return _one_hot_rep(q, dims, hot)


def coxeter_tau(rs: RootSystem, v: Root) -> Root:
    """Coxeter transformation matching the AR translate on dimension
    vectors for the bipartite orientation (minus part first)."""
    for i in sorted(rs.I_minus):
        v = rs.reflect(i, v)
    for i in sorted(rs.I_plus):
        v = rs.reflect(i, v)
    return v


def coxeter_tau_inverse(rs: RootSystem, v: Root) -> Root:
    for i in sorted(rs.I_plus):
        v = rs.reflect(i, v)
    for i in sorted(rs.I_minus):
        v = rs.reflect(i, v)
    return v


def reflection_source(rep: Representation, v: int) -> Representation:
    """BGP reflection at a source: replace V_v with the cokernel of the
    combined map into the neighbouring spaces and reverse the arrows."""
    for s, t in rep.arrows:
        if t == v:
            raise ValueError(f"vertex {v} is not a source")
    out = [(k, a) for k, a in enumerate(rep.arrows) if a[0] == v]
    total = sum(rep.dims[t] for _, (s, t) in out)
    stacked = vstack([rep.maps[k] for k, _ in out], rep.dims[v]) if out else Mat.zeros(0, rep.dims[v])
    proj = left_nullspace(stacked)  # rows: basis of the cokernel, proj @ stacked == 0
    new_dims = list(rep.dims)
    new_dims[v] = proj.nrows
    new_arrows = list(rep.arrows)
    new_maps = list(rep.maps)
    offset = 0
    for k, (s, t) in out:
        block = proj.column_block(offset, offset + rep.dims[t])
        offset += rep.dims[t]
        new_arrows[k] = (t, v)
        new_maps[k] = block
    assert offset == total
    return Representation(tuple(new_dims), tuple(new_arrows), tuple(new_maps),
                          rep.reflection_sequence + (-(v + 1),))


def reflection_sink(rep: Representation, v: int) -> Representation:
    """BGP reflection at a sink: replace V_v with the kernel of the
    combined map out of the neighbouring spaces and reverse the arrows."""
    for s, t in rep.arrows:
        if s == v:
            raise ValueError(f"vertex {v} is not a sink")
    inc = [(k, a) for k, a in enumerate(rep.arrows) if a[1] == v]
    # Combined map (+V_s) -> V_v as a single matrix of horizontal blocks.
    total = sum(rep.dims[s] for _, (s, t) in inc)
    rows = []
    for r in range(rep.dims[v]):
        row: List = []
        for k, (s, t) in inc:
            row.extend(rep.maps[k].rows[r])
        rows.append(tuple(row))
    combined = Mat(rep.dims[v], total, tuple(rows))
    ker = nullspace(combined)  # columns: basis of the kernel
    new_dims = list(rep.dims)
    new_dims[v] = ker.ncols
    new_arrows = list(rep.arrows)
    new_maps = list(rep.maps)
    offset = 0
    for k, (s, t) in inc:
        block = ker.row_block(offset, offset + rep.dims[s])
        offset += rep.dims[s]
        new_arrows[k] = (v, s)
        new_maps[k] = block
    assert offset == total
    return Representation(tuple(new_dims), tuple(new_arrows), tuple(new_maps),
                          rep.reflection_sequence + (v + 1,))


def inverse_coxeter_functor(rs: RootSystem, rep: Representation) -> Representation:
    """One sweep of source reflections (plus part, then minus part),
    returning to the bipartite orientation; acts as the inverse AR
    translate on non-injective indecomposables."""
    for i in sorted(rs.I_plus):
        rep = reflection_source(rep, i)
    for i in sorted(rs.I_minus):
        rep = reflection_source(rep, i)
    return rep


def indecomposable_for_root(rs: RootSystem, beta: Root) -> Representation:
    if not rs.is_positive_root(beta):
        raise ValueError(f"{beta} is not a positive root")
    q = BipartiteQuiver.from_root_system(rs)
    proj_dims = {projective(q, i).dims: i for i in range(rs.n)}
    gamma = beta
    steps = 0
    while gamma not in proj_dims:
        gamma = coxeter_tau(rs, gamma)
        steps += 1
        if not rs.is_positive_root(gamma):
            raise RuntimeError("dimension-vector walk left the positive roots (bug)")
    rep = projective(q, proj_dims[gamma])
    for _ in range(steps):
        rep = inverse_coxeter_functor(rs, rep)
    assert rep.dims == beta
    return rep


def hom_dim(m_rep: Representation, n_rep: Representation) -> int:
    """Dimension of the space of intertwiners, by exact kernel extraction."""
    if m_rep.arrows != n_rep.arrows:
        raise ValueError("representations live on different quivers")
    nverts = len(m_rep.dims)
    offsets = []
    total = 0
    for v in range(nverts):
        offsets.append(total)
        total += n_rep.dims[v] * m_rep.dims[v]
    rows: List[List] = []
    for a, (s, t) in enumerate(m_rep.arrows):
        na, ma = n_rep.maps[a], m_rep.maps[a]
        for r in range(n_rep.dims[t]):
            for c in range(m_rep.dims[s]):
                row = [0] * total
                for k in range(n_rep.dims[s]):
                    row[offsets[s] + k * m_rep.dims[s] + c] += na.rows[r][k]
                for k in range(m_rep.dims[t]):
                    row[offsets[t] + r * m_rep.dims[t] + k] -= ma.rows[k][c]
                if any(row):
                    rows.append(row)
    return total - rank_of_rows(rows, total) if rows else total


def euler_form(rs: RootSystem, d: Sequence[int], e: Sequence[int]) -> int:
    q = BipartiteQuiver.from_root_system(rs)
    return sum(di * ei for di, ei in zip(d, e)) - sum(d[s] * e[t] for s, t in q.arrows)


def ext1_dim(rs: RootSystem, m_rep: Representation, n_rep: Representation) -> int:
    """Hereditary identity: dim Ext^1 = dim Hom - Euler form."""
    value = hom_dim(m_rep, n_rep) - euler_form(rs, m_rep.dims, n_rep.dims)
    if value < 0:
        raise RuntimeError("negative Ext^1 dimension; internal inconsistency")
    return value
