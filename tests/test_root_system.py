import gc
import itertools
import weakref

import pytest

from conftest import ALL_SYSTEMS, system
from mclusters import (DynkinType, build_root_system, derived_category, mcluster_category,
                       parabolic, parse_type)
from mclusters.coloured_roots import ColouredRoot
from mclusters.derived import DerivedObject
from mclusters.root_system import (DIAGRAM_CACHE_SIZE, ROOT_TEXT_CACHE_SIZE, RootSystem, _diagram,
                                   _orientation, root_text)


def test_a1_trivial():
    rs = build_root_system(DynkinType("A", 1))
    assert rs.positive_roots == ((1,),)
    assert rs.h == 2


def test_a3_coxeter_data(a3):
    assert a3.h == 4
    # outer nodes on the plus side, middle node on the minus side
    assert sorted(a3.I_plus) == [0, 2]
    assert sorted(a3.I_minus) == [1]


def test_d4_count(d4):
    assert d4.h == 6
    assert len(d4.positive_roots) == 12


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8"])
def test_order_formula(name):
    rs = build_root_system(parse_type(name))
    assert 2 * len(rs.positive_roots) == rs.n * rs.h


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)])
def test_invalid_types(family, rank):
    with pytest.raises(ValueError):
        DynkinType(family, rank)


def test_cartan_simply_laced(d4):
    for i in range(d4.n):
        for j in range(d4.n):
            entry = d4.cartan[i][j]
            assert entry == (2 if i == j else entry)
            if i != j:
                assert entry in (0, -1)
            assert entry == d4.cartan[j][i]


def test_bipartition_validity():
    for name in ["A4", "D5", "E6"]:
        rs = build_root_system(parse_type(name))
        for i, j in rs.edges:
            assert (i in rs.I_plus) != (j in rs.I_plus)
        assert rs.I_plus | rs.I_minus == frozenset(range(rs.n))
        assert 0 in rs.I_plus


def test_reflect_examples(a2):
    assert a2.reflect(0, (1, 0)) == (-1, 0)
    assert a2.reflect(0, (0, 1)) == (1, 1)


def test_reflect_involution(d4):
    for beta in d4.positive_roots:
        for i in range(d4.n):
            assert d4.reflect(i, d4.reflect(i, beta)) == beta


def test_reflection_closure_positive_count(a4):
    for beta in a4.positive_roots:
        for i in range(a4.n):
            image = a4.reflect(i, beta)
            neg = tuple(-c for c in image)
            assert a4.is_positive_root(image) or a4.is_positive_root(neg)


def test_simple_roots_are_unit_vectors(a3):
    for i in range(a3.n):
        assert a3.simple_root(i) in a3.positive_roots
    for beta in a3.positive_roots:
        assert all(c >= 0 for c in beta)


def test_parabolic_drop_middle(a3):
    sub = parabolic(a3, [0, 2])
    assert len(sub.positive_roots) == 2
    assert len(sub.components) == 2
    assert not sub.irreducible
    assert sub.coxeter_numbers == (2, 2)


def test_parabolic_drop_end(a3):
    sub = parabolic(a3, [0, 1])
    assert sub.irreducible
    assert sub.h == 3
    assert len(sub.positive_roots) == 3


def test_parabolic_identity(a3):
    assert parabolic(a3, range(a3.n)) is a3


def test_parabolic_empty_keep(a3):
    with pytest.raises(ValueError):
        parabolic(a3, [])


def test_parabolic_supported_roots(a4):
    for drop in range(a4.n):
        kept = [v for v in range(a4.n) if v != drop]
        sub = parabolic(a4, kept)
        supported = {tuple(b[v] for v in kept) for b in a4.positive_roots
                     if b[drop] == 0}
        assert supported == set(sub.positive_roots)


def test_parabolic_inherits_bipartition(a4):
    kept = [1, 2, 3]
    sub = parabolic(a4, kept)
    for local, parent in enumerate(kept):
        assert (local in sub.I_plus) == (parent in a4.I_plus)


def test_exponents():
    assert build_root_system(parse_type("A3")).exponents() == (1, 2, 3)
    assert build_root_system(parse_type("D4")).exponents() == (1, 3, 3, 5)
    assert build_root_system(parse_type("E6")).exponents() == (1, 4, 5, 7, 8, 11)


def cartan_reflect(rs, i, beta):
    """s_i by the Cartan row: beta - (sum_j a_ij beta_j) alpha_i."""
    c = sum(rs.cartan[i][j] * beta[j] for j in range(rs.n))
    return tuple(b - c if j == i else b for j, b in enumerate(beta))


def cartan_closure(rs):
    """Breadth-first closure of the simple roots under ``cartan_reflect``,
    in queue order and then vertex order, keeping nonnegative images."""
    out = [rs.simple_root(i) for i in range(rs.n)]
    seen = set(out)
    k = 0
    while k < len(out):
        beta = out[k]
        k += 1
        for i in range(rs.n):
            gamma = cartan_reflect(rs, i, beta)
            if gamma not in seen and all(c >= 0 for c in gamma):
                seen.add(gamma)
                out.append(gamma)
    return tuple(out)


@pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
class TestCartanReference:
    def test_closure_order(self, name, keep):
        rs = system(name, keep)
        assert rs.positive_roots == cartan_closure(rs)

    def test_reflect(self, name, keep):
        rs = system(name, keep)
        almost = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        for beta in almost:
            for i in range(rs.n):
                assert rs.reflect(i, beta) == cartan_reflect(rs, i, beta)

    def test_reflect_part(self, name, keep):
        rs = system(name, keep)
        almost = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        for part in (rs.plus_order, rs.minus_order):
            for beta in almost:
                gamma = beta
                for i in part:
                    gamma = cartan_reflect(rs, i, gamma)
                assert rs.reflect_part(part, beta) == gamma

    def test_coxeter_numbers(self, name, keep):
        """Against a scan of every root's support over each component."""
        rs = system(name, keep)
        expected = tuple(2 * sum(1 for b in rs.positive_roots if any(b[v] for v in comp))
                         // len(comp) for comp in rs.components)
        assert rs.coxeter_numbers == expected


def scan_negative_simple_index(beta):
    """``negative_simple_index`` as it was: a scan of the coefficients for
    one -1 and zeros, at any length."""
    idx = None
    for j, c in enumerate(beta):
        if c == -1 and idx is None:
            idx = j
        elif c != 0:
            return None
    return idx


def list_reflect_part(rs, part, beta):
    """``reflect_part`` as it was: each neighbour sum over a list."""
    v = list(beta)
    for i in part:
        v[i] = sum([v[j] for j in rs.neighbours[i]]) - v[i]
    return tuple(v)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def probes(rs):
    """Every positive root and -alpha_i, the zero vector, each -2 alpha_i
    and each -alpha_i - alpha_j, all of length n."""
    zero, n = (0,) * rs.n, rs.n
    return ([*rs.positive_roots, *map(rs.negative_simple, range(n)), zero]
            + [zero[:i] + (-2,) + zero[i + 1:] for i in range(n)]
            + [tuple(-int(k in (i, j)) for k in range(n))
               for i, j in itertools.combinations(range(n), 2)])


def wrong_lengths(rs):
    """Tuples one shorter and one longer than n, each -alpha_1 cut or padded."""
    return [rs.negative_simple(0)[:-1], rs.negative_simple(0) + (0,)]


@pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
class TestPrimitivesAgainstOldForms:
    def test_negative_simple_index(self, name, keep):
        rs = system(name, keep)
        for beta in probes(rs):
            assert rs.negative_simple_index(beta) == scan_negative_simple_index(beta), beta
        # No tuple of another length is a -alpha_i.  The scan named vertex 0
        # for these (for A1, the shorter one is empty and it named none).
        for beta in wrong_lengths(rs):
            assert rs.negative_simple_index(beta) is None
            assert not rs.is_almost_positive(beta)
            assert scan_negative_simple_index(beta) == (0 if beta else None)

    def test_reflect_part(self, name, keep):
        rs = system(name, keep)
        for part in (rs.plus_order, rs.minus_order):
            for beta in probes(rs) + wrong_lengths(rs):
                assert (outcome(rs.reflect_part, part, beta)
                        == outcome(list_reflect_part, rs, part, beta)), (part, beta)


def test_reflect_out_of_range(a2):
    for i in (-1, 2):
        with pytest.raises(ValueError):
            a2.reflect(i, (1, 0))


@pytest.mark.parametrize("name", ["D12", "A20"])
def test_closure_order_high_rank(name):
    rs = system(name)
    assert rs.positive_roots == cartan_closure(rs)


def leaves(value):
    """The non-container values inside nested tuples and frozensets."""
    if isinstance(value, (tuple, frozenset)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


class TestDiagramCache:
    @pytest.mark.parametrize("sub_first", [True, False])
    def test_one_diagram_two_bipartitions(self, sub_first):
        # A3 without vertex 0 and A2 have one diagram: they share its root
        # data, and each keeps its own bipartition, arrows and memo.
        _diagram.cache_clear()
        builds = {"sub": lambda: parabolic(system("A3"), [1, 2]), "a2": lambda: system("A2")}
        built = {name: builds[name]() for name in (builds if sub_first else reversed(builds))}
        sub, a2 = built["sub"], built["a2"]
        assert sub.positive_roots is a2.positive_roots
        assert (sub.I_plus, a2.I_plus) == ({1}, {0})
        assert (sub.plus_order, a2.plus_order) == ((1,), (0,))
        assert (sub.arrows, a2.arrows) == (((1, 0),), ((0, 1),))
        assert sub.memo is not a2.memo

    def test_one_orientation_per_bipartition(self):
        # Systems on one diagram with one bipartition share its parts and
        # arrows; another bipartition of the diagram gets its own.
        _orientation.cache_clear()
        e7, again = system("E7"), system("E7")
        assert (e7.I_minus, e7.plus_order, e7.arrows) == (again.I_minus, again.plus_order,
                                                          again.arrows)
        assert e7.arrows is again.arrows and e7.minus_order is again.minus_order
        flipped = RootSystem(7, e7.edges, I_plus=e7.I_minus)
        assert flipped.arrows == tuple((j, i) for i, j in e7.arrows)
        info = _orientation.cache_info()
        assert (info.currsize, info.maxsize) == (2, DIAGRAM_CACHE_SIZE)

    def test_bad_bipartition_raises_on_every_call(self):
        # The cache keeps no failed bipartition: each call checks it again.
        _orientation.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^edge \{0,1\} joins two vertices of the same part$"):
                RootSystem(3, [(0, 1), (1, 2)], I_plus=[0, 1])
            with pytest.raises(ValueError, match="^bipartition does not cover the vertex set$"):
                RootSystem(2, [(0, 1)], I_plus=[0, 5])
        assert _orientation.cache_info().currsize == 0
        assert RootSystem(3, [(0, 1), (1, 2)], I_plus=[0, 2]).arrows == ((0, 1), (2, 1))
        assert _orientation.cache_info().currsize == 1

    def test_holds_no_system(self):
        # An entry is integers in tuples and sets only, and every system and
        # category on a cached diagram is freed with the system.
        alive = []
        for _ in range(300):
            rs = system("A3")
            alive += map(weakref.ref, (rs, derived_category(rs), mcluster_category(rs, 2)))
        roots = rs.positive_roots
        del rs
        gc.collect()
        assert not any(ref() for ref in alive)
        assert system("A3").positive_roots is roots
        assert all(type(v) is int for v in leaves(_diagram(3, ((0, 1), (1, 2)))))
        assert all(type(v) is int for v in leaves(_orientation(3, ((0, 1), (1, 2)),
                                                               frozenset({0, 2}))))

    def test_bounded(self):
        # The parabolic subsystems of A9 give more diagrams than the bound;
        # the first one built is evicted, and built again it is still the
        # reference closure.
        a9 = system("A9")
        keeps = [k for r in range(1, 10) for k in itertools.combinations(range(9), r)]
        _diagram.cache_clear()
        diagrams = set()
        for keep in keeps:
            rs = parabolic(a9, keep)
            diagrams.add((rs.n, rs.edges))
        info = _diagram.cache_info()
        assert len(diagrams) > DIAGRAM_CACHE_SIZE and info.maxsize == DIAGRAM_CACHE_SIZE
        assert info.currsize == DIAGRAM_CACHE_SIZE
        rs = parabolic(a9, keeps[0])
        assert _diagram.cache_info().misses == info.misses + 1
        assert rs.positive_roots == cartan_closure(rs)


def test_root_text_holds_every_root_of_d32():
    """Labels take a root's text from a bounded cache, which holds every
    root of the largest system the CLI accepts."""
    d32 = system("D32")
    assert root_text.cache_info().maxsize == ROOT_TEXT_CACHE_SIZE
    assert len(d32.positive_roots) + d32.n <= ROOT_TEXT_CACHE_SIZE
    assert str(DerivedObject((1, -2, 10), -3)) == "V(1,-2,10)[-3]"
    assert str(ColouredRoot((0, -1), 2)) == "(0,-1)^2"
    assert root_text(()) == ""
