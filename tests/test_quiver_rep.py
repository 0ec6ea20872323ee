import itertools

import pytest

from mclusters import (BipartiteQuiver, DerivedObject, build_root_system,
                       derived_category, ext1_dim, euler_form, hom_dim,
                       indecomposable_for_root, injective, parse_type, projective)
from mclusters.quiver_rep import reflection_sink, reflection_source


@pytest.fixture(scope="module")
def qa2(a2):
    return BipartiteQuiver.from_root_system(a2)


@pytest.fixture(scope="module")
def qa3(a3):
    return BipartiteQuiver.from_root_system(a3)


def test_arrows_plus_to_minus(d4):
    q = BipartiteQuiver.from_root_system(d4)
    assert len(q.arrows) == len(d4.edges)
    for s, t in q.arrows:
        assert s in d4.I_plus and t in d4.I_minus


class TestProjectiveInjective:
    def test_a2(self, qa2):
        assert projective(qa2, 1).dims == (0, 1)
        assert projective(qa2, 0).dims == (1, 1)
        assert injective(qa2, 1).dims == (1, 1)
        assert injective(qa2, 0).dims == (1, 0)

    def test_a3(self, a3, qa3):
        # middle vertex is the sink
        assert projective(qa3, 1).dims == (0, 1, 0)
        assert projective(qa3, 0).dims == (1, 1, 0)
        assert injective(qa3, 1).dims == (1, 1, 1)

    def test_dim_formula(self, d4):
        q = BipartiteQuiver.from_root_system(d4)
        for i in range(d4.n):
            expected = list(d4.simple_root(i))
            if i in d4.I_plus:
                for a, b in d4.edges:
                    if i in (a, b):
                        expected[a + b - i] += 1
            assert projective(q, i).dims == tuple(expected)


class TestIndecomposables:
    def test_a2_simple(self, a2, qa2):
        rep = indecomposable_for_root(a2, (0, 1))
        assert rep == projective(qa2, 1)

    def test_a2_big_root(self, a2):
        rep = indecomposable_for_root(a2, (1, 1))
        assert rep.dims == (1, 1)
        assert rep.maps[0].rows == ((1,),)

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_gabriel_roundtrip(self, name):
        rs = build_root_system(parse_type(name))
        for beta in rs.positive_roots:
            assert indecomposable_for_root(rs, beta).dims == beta

    def test_rejects_non_root(self, a2):
        with pytest.raises(ValueError):
            indecomposable_for_root(a2, (2, 1))


class TestHom:
    def test_projective_coefficient(self, a2, qa2):
        assert hom_dim(projective(qa2, 0), indecomposable_for_root(a2, (1, 1))) == 1

    def test_no_map_between_opposite_simples(self, a2):
        s1 = indecomposable_for_root(a2, (1, 0))
        s2 = indecomposable_for_root(a2, (0, 1))
        assert hom_dim(s1, s2) == 0

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_endomorphism_rings_trivial(self, name):
        rs = build_root_system(parse_type(name))
        for beta in rs.positive_roots:
            rep = indecomposable_for_root(rs, beta)
            assert hom_dim(rep, rep) == 1

    def test_projective_hom_gives_coefficients(self, a3, qa3):
        for i in range(a3.n):
            p = projective(qa3, i)
            for beta in a3.positive_roots:
                assert hom_dim(p, indecomposable_for_root(a3, beta)) == beta[i]

    def test_quiver_mismatch(self, a2, a3):
        with pytest.raises(ValueError):
            hom_dim(indecomposable_for_root(a2, (1, 0)),
                    indecomposable_for_root(a3, (1, 0, 0)))


class TestEulerForm:
    def test_examples(self, a2):
        assert euler_form(a2, (1, 0), (0, 1)) == -1
        assert euler_form(a2, (3, 5), (0, 0)) == 0

    def test_projective_pairing(self, a3, qa3):
        for i in range(a3.n):
            p = projective(qa3, i)
            for e in [(1, 0, 0), (1, 2, 1), (0, 1, 1)]:
                assert euler_form(a3, p.dims, e) == e[i]

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_hom_minus_ext_identity(self, name):
        rs = build_root_system(parse_type(name))
        reps = [indecomposable_for_root(rs, b) for b in rs.positive_roots]
        for m, n in itertools.product(reps, repeat=2):
            assert (hom_dim(m, n) - ext1_dim(rs, m, n)
                    == euler_form(rs, m.dims, n.dims))


class TestExt1:
    def test_extension_between_simples(self, a2):
        s1 = indecomposable_for_root(a2, (1, 0))
        s2 = indecomposable_for_root(a2, (0, 1))
        assert ext1_dim(a2, s1, s2) == 1
        assert ext1_dim(a2, s2, s1) == 0

    def test_rigidity(self, a3):
        for beta in a3.positive_roots:
            rep = indecomposable_for_root(a3, beta)
            assert ext1_dim(a3, rep, rep) == 0

    def test_projectives_have_no_ext(self, a3, qa3):
        for i in range(a3.n):
            p = projective(qa3, i)
            for beta in a3.positive_roots:
                assert ext1_dim(a3, p, indecomposable_for_root(a3, beta)) == 0


class TestReflectionFunctors:
    def test_double_reflection_preserves_hom_profile(self, a3):
        reps = [indecomposable_for_root(a3, b) for b in a3.positive_roots]
        source = 0  # a source of the bipartite orientation of A3
        for rep in reps:
            if rep.dims == a3.simple_root(source):
                continue
            back = reflection_sink(reflection_source(rep, source), source)
            assert back.dims == rep.dims
            assert back.arrows == rep.arrows
            for other in reps:
                assert hom_dim(back, other) == hom_dim(rep, other)
                assert hom_dim(other, back) == hom_dim(other, rep)

    def test_source_validation(self, a3):
        rep = indecomposable_for_root(a3, (1, 1, 1))
        with pytest.raises(ValueError):
            reflection_source(rep, 1)  # vertex 1 is the sink
        with pytest.raises(ValueError):
            reflection_sink(rep, 0)

    def test_reflection_sequence_recorded(self, a3):
        rep = indecomposable_for_root(a3, (1, 0, 0))  # simple at a source: not projective
        assert rep.reflection_sequence


@pytest.fixture(scope="module", params=["A5", "D6", "E6"])
def witness(request):
    """Exact Hom and Ext^1 between every ordered pair of indecomposables,
    computed on the reflection-functor modules."""
    rs = build_root_system(parse_type(request.param))
    reps = [indecomposable_for_root(rs, b) for b in rs.positive_roots]
    table = {(m.dims, n.dims): (hom_dim(m, n), ext1_dim(rs, m, n))
             for m, n in itertools.product(reps, repeat=2)}
    return rs, table


class TestClosedForm:
    """Dynkin path algebras are representation-directed, so Hom and Ext^1
    between indecomposables are never both nonzero and both come from the
    Euler form."""

    def test_exact_matches_euler_form(self, witness):
        rs, table = witness
        assert len(table) == len(rs.positive_roots) ** 2
        for (a, b), (hom, ext) in table.items():
            e = euler_form(rs, a, b)
            assert (hom, ext) == (max(e, 0), max(-e, 0)), (a, b)

    def test_derived_hom_matches_exact(self, witness):
        rs, table = witness
        d = derived_category(rs)
        for (a, b), (hom, ext) in table.items():
            assert d.hom(DerivedObject(a, 0), DerivedObject(b, 0)) == hom, (a, b)
            assert d.hom(DerivedObject(a, 2), DerivedObject(b, 3)) == ext, (a, b)
