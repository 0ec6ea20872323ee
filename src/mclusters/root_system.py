"""Simply-laced root systems with bipartition and parabolic subsystems.

Vertices are indexed 0..n-1 internally; serialized output uses 1-based
labels.  Diagram shapes:

* ``A_n``: path 0-1-...-(n-1)
* ``D_n``: path 0-...-(n-3) with both n-2 and n-1 attached to n-3
* ``E_r``: path 0-...-(r-2) with vertex r-1 attached to vertex 2

Roots are integer coefficient vectors over the simple roots, stored as
tuples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

Root = Tuple[int, ...]

_RANK_BOUNDS = {"A": 1, "D": 4}
_E_RANKS = {6, 7, 8}


class _DynkinFields(NamedTuple):
    family: str
    rank: int


class DynkinType(_DynkinFields):
    """A family and a rank, checked on construction.  A ``NamedTuple``
    cannot define ``__new__`` in its own body, so the check sits on a
    subclass of the field tuple."""
    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "DynkinType":
        if family not in ("A", "D", "E"):
            raise ValueError(f"unknown family {family!r}")
        if family == "E":
            if rank not in _E_RANKS:
                raise ValueError(f"E rank must be 6, 7 or 8, got {rank}")
        elif rank < _RANK_BOUNDS[family]:
            raise ValueError(f"{family} rank must be >= {_RANK_BOUNDS[family]}, got {rank}")
        return super().__new__(cls, family, rank)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        n = self.rank
        if self.family == "A":
            return tuple((i, i + 1) for i in range(n - 1))
        if self.family == "D":
            path = [(i, i + 1) for i in range(n - 3)]
            return tuple(path + [(n - 3, n - 2), (n - 3, n - 1)])
        path = [(i, i + 1) for i in range(n - 2)]
        return tuple(path + [(2, n - 1)])

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_int(text: str) -> int:
    """``int(text)`` for an optional ``-`` and ASCII digits only, refusing
    ``int()``'s underscores, ``+``, spaces and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_type(text: str) -> DynkinType:
    """A family letter and a rank read by ``parse_int``, so that a negative
    or zero rank gets its range message."""
    text = text.strip()
    try:
        rank = parse_int(text[1:])
    except ValueError:
        rank = None
    if rank is None or text[0].upper() not in "ADE":
        raise ValueError(f"cannot parse Dynkin type {text!r}")
    return DynkinType(text[0].upper(), rank)


# Every root of any system the CLI accepts: D32 has 992 + 32 almost positive.
ROOT_TEXT_CACHE_SIZE = 1024


@lru_cache(maxsize=ROOT_TEXT_CACHE_SIZE)
def root_text(beta: Root) -> str:
    """The coefficients of ``beta`` joined by commas, as labels print them."""
    return ",".join(map(str, beta))


class _Diagram(NamedTuple):
    """The root data of a diagram, which depend on nothing else: the
    Cartan rows, the neighbour lists, the components (in order of their
    lowest vertex), the default plus part (that vertex of each component
    and every vertex at even distance from it), the positive roots in
    closure order and their set, the Coxeter number of each component,
    and the set of the negative simple roots."""
    cartan: Tuple[Tuple[int, ...], ...]
    neighbours: Tuple[Tuple[int, ...], ...]
    components: Tuple[FrozenSet[int], ...]
    plus: FrozenSet[int]
    positive_roots: Tuple[Root, ...]
    positive_set: FrozenSet[Root]
    coxeter_numbers: Tuple[int, ...]
    negative_simples: FrozenSet[Root]


# A diagram's entry holds only tuples and sets of integers, never a system or
# anything in its memo, so a cached diagram keeps no category alive.  The
# largest entry the CLI accepts, D32, holds about 340 KiB, so a full cache
# holds at most about 22 MiB.
DIAGRAM_CACHE_SIZE = 64


@lru_cache(maxsize=DIAGRAM_CACHE_SIZE)
def _diagram(n: int, edges: Tuple[Tuple[int, int], ...]) -> _Diagram:
    """The root data of the diagram on vertices 0..n-1 with ``edges``,
    which must be sorted pairs in sorted order, built once per diagram."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
        adj[i].append(j)
        adj[j].append(i)
    cartan = tuple(map(tuple, c))
    neighbours = tuple(map(tuple, adj))  # increasing: the edges are sorted
    # One walk of the diagram gives the components, in order of their lowest
    # vertex, and a 2-colouring (side 0 is plus) with that vertex on the plus side.
    component_of, side = [-1] * n, [0] * n
    components: List[FrozenSet[int]] = []
    for v in range(n):
        if component_of[v] >= 0:
            continue
        component_of[v] = k = len(components)
        comp = [v]
        for u in comp:  # breadth first: comp grows as it is read
            for w in neighbours[u]:
                if component_of[w] < 0:
                    component_of[w], side[w] = k, 1 - side[u]
                    comp.append(w)
        components.append(frozenset(comp))
    positive_roots = _closure(cartan, neighbours)
    # A component's Coxeter number is 2|its positive roots| / |its
    # vertices|.  A root has connected support, so its first nonzero
    # coordinate (the first occurrence of its first nonzero value)
    # names its component, and one pass counts them all.
    counts = [0] * len(components)
    for b in positive_roots:
        counts[component_of[b.index(next(filter(None, b)))]] += 1
    coxeter_numbers = tuple(2 * count // len(comp) for comp, count in zip(components, counts))
    return _Diagram(cartan, neighbours, tuple(components),
                    frozenset(v for v in range(n) if not side[v]),
                    positive_roots, frozenset(positive_roots), coxeter_numbers,
                    frozenset(tuple(-c for c in b) for b in positive_roots[:n]))


@lru_cache(maxsize=DIAGRAM_CACHE_SIZE)
def _orientation(n: int, edges: Tuple[Tuple[int, int], ...], plus: FrozenSet[int]) -> Tuple:
    """The minus part, each part in vertex order and the arrows, from the
    plus part to the minus part, of the bipartition of the diagram whose
    plus part is ``plus``.  A ``plus`` that is no bipartition raises
    ``ValueError``, which the cache does not keep, so each call raises."""
    minus = frozenset(range(n)) - plus
    if plus | minus != frozenset(range(n)):
        raise ValueError("bipartition does not cover the vertex set")
    for i, j in edges:
        if (i in plus) == (j in plus):
            raise ValueError(f"edge {{{i},{j}}} joins two vertices of the same part")
    return (minus, tuple(sorted(plus)), tuple(sorted(minus)),
            tuple((i, j) if i in plus else (j, i) for i, j in edges))


def _closure(cartan: Tuple[Tuple[int, ...], ...],
             neighbours: Tuple[Tuple[int, ...], ...]) -> Tuple[Root, ...]:
    """Breadth-first closure of the simple roots under the simple
    reflections, in queue order and then vertex order.  Each queued
    root beta carries its Cartan pairings p = C beta, and s_i beta is
    beta with coordinate i set to beta_i - p_i.  Only raising images
    (p_i < 0) are queued: queue order is height order, so a lowered
    image is already queued.  The image's pairings are p - p_i C[i],
    which changes only entry i and the entries of its neighbours."""
    n = len(cartan)
    out: List[Root] = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    pairings: List[Tuple[int, ...]] = list(cartan)  # C alpha_i is row i: C is symmetric
    seen = set(out)
    k = 0
    while k < len(out):
        beta, p = out[k], pairings[k]
        k += 1
        for i, p_i in enumerate(p):
            if p_i >= 0:
                continue
            gamma = beta[:i] + (beta[i] - p_i,) + beta[i + 1:]
            if gamma not in seen:
                seen.add(gamma)
                out.append(gamma)
                q = list(p)
                q[i] -= 2 * p_i
                for j in neighbours[i]:
                    q[j] += p_i
                pairings.append(tuple(q))
    return tuple(out)


class RootSystem:
    """A (possibly reducible) simply-laced root system on a fixed diagram.

    The root data (Cartan rows, neighbours, components, positive roots,
    Coxeter numbers) depend on the diagram alone and are shared by every
    system on the same diagram, from a cache of at most
    ``DIAGRAM_CACHE_SIZE`` diagrams.  The type and the bipartition are the
    caller's and belong to the instance, which hashes by identity; the
    parts and arrows of a bipartition come from a cache of the same size.
    Everything built from a system, such as its categories,
    Hom table, shift and rotation tables, is kept in its own
    ``memo`` by ``cached``, so it is freed together with the system.
    """

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]],
                 dynkin_type: Optional[DynkinType] = None,
                 I_plus: Optional[Iterable[int]] = None):
        self.type = dynkin_type
        self.memo: Dict[object, Any] = {}
        self.n = n
        self.edges: Tuple[Tuple[int, int], ...] = tuple(sorted(tuple(sorted(e)) for e in edges))
        d = _diagram(n, self.edges)
        self.cartan, self.neighbours, self.components = d.cartan, d.neighbours, d.components
        self.positive_roots, self._positive_set = d.positive_roots, d.positive_set
        self.coxeter_numbers, self._negative_simples = d.coxeter_numbers, d.negative_simples
        self.I_plus = d.plus if I_plus is None else frozenset(I_plus)
        self.I_minus, self.plus_order, self.minus_order, self.arrows = _orientation(
            n, self.edges, self.I_plus)

    def cached(self, key: object, build: Callable[[], Any]) -> Any:
        """``memo[key]``, from ``build()`` on first use."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    @property
    def h(self) -> int:
        """Coxeter number; defined only for irreducible systems."""
        if len(self.components) != 1:
            raise ValueError("Coxeter number is per-component for reducible systems")
        return self.coxeter_numbers[0]

    @property
    def irreducible(self) -> bool:
        return len(self.components) == 1

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def negative_simple(self, i: int) -> Root:
        return tuple(-1 if j == i else 0 for j in range(self.n))

    def reflect(self, i: int, beta: Root) -> Root:
        """Simple reflection s_i applied to a coefficient vector:
        coordinate i becomes -beta_i plus the sum over the neighbours of i."""
        if not 0 <= i < self.n:
            raise ValueError(f"vertex {i} out of range")
        b = sum([beta[j] for j in self.neighbours[i]]) - beta[i]
        return beta[:i] + (b,) + beta[i + 1:]

    def reflect_part(self, part: Sequence[int], beta: Root) -> Root:
        """Product of the simple reflections over ``part``, which must be
        ``plus_order`` or ``minus_order``.  No two vertices of a part are
        adjacent, so the reflections commute and each reads only
        coordinates of the other part."""
        v = list(beta)
        nbrs = self.neighbours
        for i in part:
            b = -v[i]
            for j in nbrs[i]:
                b += v[j]
            v[i] = b
        return tuple(v)

    def is_positive_root(self, beta: Root) -> bool:
        return beta in self._positive_set

    def negative_simple_index(self, beta: Root) -> Optional[int]:
        """Vertex i if beta == -alpha_i, else None."""
        return beta.index(-1) if beta in self._negative_simples else None

    def is_almost_positive(self, beta: Root) -> bool:
        return self.is_positive_root(beta) or self.negative_simple_index(beta) is not None

    def exponents(self) -> Tuple[int, ...]:
        """Exponents, from the height distribution of the positive roots."""
        if not self.irreducible:
            raise ValueError("exponents are per-component for reducible systems")
        heights = [sum(b) for b in self.positive_roots]
        counts: Dict[int, int] = {}
        for height in heights:
            counts[height] = counts.get(height, 0) + 1
        exps = [sum(1 for c in counts.values() if c >= i) for i in range(1, self.n + 1)]
        return tuple(sorted(exps))

    def __repr__(self) -> str:
        name = str(self.type) if self.type else f"diagram(n={self.n})"
        return f"RootSystem({name})"


def build_root_system(t: DynkinType) -> RootSystem:
    rs = RootSystem(t.rank, t.edges(), dynkin_type=t)
    assert 2 * len(rs.positive_roots) == rs.n * rs.h
    return rs


def parabolic(rs: RootSystem, keep: Iterable[int]) -> RootSystem:
    """Sub-root-system on the induced subdiagram, possibly reducible.

    Local vertex i corresponds to the i-th smallest kept parent vertex.
    Bipartition is inherited.  ``keep`` equal to the full vertex set
    returns ``rs`` itself.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("keep set must be nonempty")
    if any(v < 0 or v >= rs.n for v in kept):
        raise ValueError("keep set contains out-of-range vertices")
    if len(kept) == rs.n:
        return rs
    local = {v: i for i, v in enumerate(kept)}
    edges = [(local[i], local[j]) for i, j in rs.edges if i in local and j in local]
    plus = [local[v] for v in kept if v in rs.I_plus]
    return RootSystem(len(kept), edges, I_plus=plus)
