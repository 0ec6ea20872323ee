import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul

import pytest

from mclusters import (DerivedObject, build_root_system, cluster_complex, parabolic, parse_type,
                       shift)
from mclusters.orbit_category import _power

# Reducible parabolic subsystems: A3 without its middle vertex (A1 + A1),
# D4 without its branch vertex (A1 + A1 + A1), and E7 without vertex 3,
# 1-based (A2 + A3 + A1).
REDUCIBLE = [("A3", (0, 2)), ("D4", (0, 2, 3)), ("E7", (0, 1, 3, 4, 5, 6))]

# Every irreducible type through rank 8, then the reducible subsystems, as
# (name, keep) for ``system``.
ALL_SYSTEMS = ([(f"A{r}", None) for r in range(1, 9)] + [(f"D{r}", None) for r in range(4, 9)]
               + [(f"E{r}", None) for r in (6, 7, 8)] + REDUCIBLE)


def system(name, keep=None):
    """The root system of type ``name``, or its parabolic subsystem on
    ``keep`` when given."""
    rs = build_root_system(parse_type(name))
    return rs if keep is None else parabolic(rs, keep)


@pytest.fixture(scope="session")
def a2():
    return build_root_system(parse_type("A2"))


@pytest.fixture(scope="session")
def a3():
    return build_root_system(parse_type("A3"))


@pytest.fixture(scope="session")
def a4():
    return build_root_system(parse_type("A4"))


@pytest.fixture(scope="session")
def d4():
    return build_root_system(parse_type("D4"))


@lru_cache(maxsize=8)
def fine_table(d):
    """Fine degree of each positive root in the module slice of ``d``,
    walked by tau^-1 from each P_i while the shift stays 0: dF(P_i) is 0 at
    a sink and -1 at a source, and each step lowers it by 2."""
    table = {}
    for i, beta in enumerate(d.proj_dims):
        x, f = DerivedObject(beta, 0), 0 if i in d.rs.I_minus else -1
        while x.shift == 0:
            table[x.beta], x, f = f, d.tau_inverse(x), f - 2
    return table


def coxeter_number(rs, beta):
    """Coxeter number of the component that supports ``beta``."""
    v = next(v for v, c in enumerate(beta) if c)
    return next(h for comp, h in zip(rs.components, rs.coxeter_numbers) if v in comp)


def fine_degree(d, x):
    return fine_table(d)[x.beta] - x.shift * coxeter_number(d.rs, x.beta)


def G(cat, x):
    return shift(cat.D.tau_inverse(x), cat.m)


def in_domain(cat, x):
    """Whether ``x`` has fine degree in [-mh+1, 2], h its component's."""
    return -cat.m * coxeter_number(cat.rs, x.beta) + 1 <= fine_degree(cat.D, x) <= 2


def orbit_sum(cat, X, Y, i):
    """Hom(G^p X, Y[i]) summed over p in [-4, 4], with the orbit walked
    here and Y[i] not landed: a wider reference for ``ext``, which reads
    G^-1 X and X into Y landed i times."""
    powers, up, down = [X], X, X
    for _ in range(4):
        up, down = G(cat, up), cat.G_inverse(down)
        powers += [up, down]
    return sum(cat.D.hom(o, shift(Y, i)) for o in powers)


def reduce_walk(cat, x):
    """The fundamental-domain representative of the G-orbit of ``x``, with
    the orbit walked by G and G^-1 as far as it takes: a general reference
    for the one G^-1 step of ``shift_matches_rotation``.  G keeps an object
    in its component, so one Coxeter number serves."""
    floor = -cat.m * coxeter_number(cat.rs, x.beta) + 1
    steps = 2 * len(cat.rs.positive_roots) + 4
    while fine_degree(cat.D, x) > 2:
        x, steps = G(cat, x), steps - 1
        assert steps >= 0, "fundamental-domain walk failed to land"
    while fine_degree(cat.D, x) < floor:
        x, steps = cat.G_inverse(x), steps - 1
        assert steps >= 0, "fundamental-domain walk failed to land"
    return x


def ext_instances(cat):
    """Every nonzero Ext^i(W(a), W(b)) of ``cat`` as ``(i, a, b, value)``:
    each stored H(a, c) is Ext^i(a, b) at b = sigma^-i(c), for i = 1..m.
    These are the values behind ``compatible_rows``, read here apart from
    it; like it, this raises on a sigma that is not a permutation."""
    inverse = _power(cat.shift_permutation(), -1)
    for a, row in enumerate(cat.hom_entries()):
        for c, value in row.items():
            for i in range(1, cat.m + 1):
                c = inverse[c]  # sigma^-i of the stored column
                yield i, a, c, value


def dense_ext(cat):
    """The whole Ext table of ``cat`` from its nonzero Ext instances, read
    off the Hom table through powers of the shift: ``table[i-1][a][b]`` is
    Ext^i(W(a), W(b)), 0 where no instance is generated."""
    size = cat.m * len(cat.rs.positive_roots) + cat.rs.n
    table = [[[0] * size for _ in range(size)] for _ in range(cat.m)]
    for i, a, b, value in ext_instances(cat):
        table[i - 1][a][b] = value
    return table


def dense_hom_entries(cat):
    """The Hom table of ``cat`` as it was built before the Euler rows were
    packed: a dense Euler matrix, one dot product per pair of positive
    roots, read for G^-1 X and X of each node at its own shift and at the
    next: the reference for ``hom_entries``."""
    roots = cat.rs.positive_roots
    rid = {beta: k for k, beta in enumerate(roots)}
    E = [[sum(map(mul, u, d)) for d in roots] for u in map(cat.D._euler_row, roots)]
    objs, backs = cat._image()
    at_shift = {}
    for c, Z in enumerate(objs):
        at_shift.setdefault(Z.shift, []).append((c, rid[Z.beta]))
    H = []
    for X, back in zip(objs, backs):
        row = {}
        for o in (back, X):
            e = E[rid[o.beta]]
            for u, sign in ((o.shift, 1), (o.shift + 1, -1)):
                for c, d in at_shift.get(u, ()):
                    if sign * e[d] > 0:
                        row[c] = row.get(c, 0) + sign * e[d]
        H.append(row)
    return H


def restriction_pairs(g, g_sub, kept):
    """``(checked, failures)`` of the parabolic restriction of ``g`` to
    ``kept`` against ``g_sub``, compared pair by pair over the lifted nodes
    in ``g``'s order: the reference for ``_restriction_report``, which
    compares a row pair by pair only when it differs."""
    supported = cluster_complex._lift(g, g_sub, kept)
    failures = []
    for a, (fx, sx) in enumerate(supported):
        row, sub_row = g.adjacency[fx], g_sub.adjacency[sx]
        for fy, sy in supported[a:]:
            full, restricted = bool(row >> fy & 1), bool(sub_row >> sy & 1)
            if full != restricted:
                failures.append((g.nodes[fx], g.nodes[fy], full, restricted))
    return len(supported) * (len(supported) + 1) // 2, failures


def pairwise(size, verdict):
    """The bitset rows of the graph on ``range(size)`` with ``verdict(a, b)``
    read for every pair a <= b: the reference for ``build_graph``, which
    rotates the combinatorial rows of the negative simples to the rest."""
    rows = [0] * size
    for a in range(size):
        for b in range(a, size):
            if verdict(a, b):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def corrupt(g, case):
    """``g`` with its rotation or its rows corrupted as ``case`` names: a
    rotation that is missing ("none"), not a permutation of the ids
    ("short", "repeat"), holds -1 ("minus one") or is no automorphism of
    the rows ("transposed"); or rows with a pair flipped ("flipped pair"),
    or with one bit flipped with all its images, so that the rotation
    keeps them but they are not symmetric ("asymmetric orbit")."""
    rho = g.rotation
    a, b = next((a, b) for a, b in itertools.combinations(range(len(rho)), 2)
                if rho[a] != b and rho[b] != a)
    if case == "flipped pair":
        rows = list(g.adjacency)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        g.adjacency = rows
    elif case == "asymmetric orbit":  # bit b of row a and its images only
        rows, x, y = list(g.adjacency), a, b
        while True:
            rows[x] ^= 1 << y
            x, y = rho[x], rho[y]
            if (x, y) == (a, b):
                break
        g.adjacency = rows
        assert cluster_complex._invariant(g)
    else:
        swapped = list(rho)
        swapped[a], swapped[b] = rho[b], rho[a]
        g.rotation = {"none": None, "short": rho[:-1], "repeat": (rho[1],) + rho[1:],
                      "minus one": (-1,) + rho[1:], "transposed": tuple(swapped)}[case]
    return g


def naive_maximal_cliques(adjacency):
    """Exponential-scan oracle for maximal cliques, for cross-checking the
    face walk on small graphs; ``adjacency`` is the graph's bitset rows."""
    size = len(adjacency)
    cliques = []
    for mask in range(1, 1 << size):
        members = [i for i in range(size) if mask >> i & 1]
        if all(adjacency[a] >> b & 1 for a in members for b in members if a != b):
            if all(any(not adjacency[u] >> v & 1 for v in members)
                   for u in range(size) if u not in members):
                cliques.append(tuple(members))
    cliques.sort()
    return cliques


def facet_count(rs, m):
    """The facets of ``rs`` at ``m``: the product of its components'."""
    return prod(fuss_catalan(parabolic(rs, sorted(c)), m) for c in rs.components)


def fuss_catalan(rs, m):
    """Facet-count product over the exponents; independent cross-check."""
    value = Fraction(1)
    for e in rs.exponents():
        value *= Fraction(m * rs.h + e + 1, e + 1)
    assert value.denominator == 1
    return int(value)
