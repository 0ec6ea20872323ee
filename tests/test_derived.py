import ast
import inspect
import itertools
import math
import re

import pytest

from conftest import (ALL_SYSTEMS, REDUCIBLE, coxeter_number, fine_degree, fine_table,
                      reduce_walk, system)
from mclusters import (DerivedObject, build_root_system, derived, derived_category,
                       parse_type, quiver_rep, shift)
from mclusters.orbit_category import mcluster_category


@pytest.fixture(scope="module")
def da2(a2):
    return derived_category(a2)


@pytest.fixture(scope="module")
def da3(a3):
    return derived_category(a3)


class TestFineTable:
    def test_a2_values(self, da2):
        assert fine_table(da2)[(0, 1)] == 0
        assert fine_table(da2)[(1, 1)] == -1
        assert fine_table(da2)[(1, 0)] == -2

    def test_a3_window(self, a3, da3):
        assert len(fine_table(da3)) == 6
        assert set(fine_table(da3).values()) <= set(range(-3, 1))

    @pytest.mark.parametrize("name", ["A4", "D4", "E6"])
    def test_window_filled(self, name):
        rs = build_root_system(parse_type(name))
        d = derived_category(rs)
        assert len(fine_table(d)) == len(rs.positive_roots)
        assert all(-rs.h + 1 <= v <= 0 for v in fine_table(d).values())
        for i in range(rs.n):
            assert fine_table(d)[d.proj_dims[i]] == (0 if i in rs.I_minus else -1)

    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_reducible_window_per_component(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        assert len(fine_table(d)) == len(rs.positive_roots)
        for beta, value in fine_table(d).items():
            assert -coxeter_number(rs, beta) + 1 <= value <= 0


def _component(rs, beta):
    """Index in ``rs.components`` of the component that supports ``beta``."""
    v = next(v for v, c in enumerate(beta) if c)
    return next(k for k, comp in enumerate(rs.components) if v in comp)


class TestReducible:
    """A disconnected quiver's derived category is the product of its
    components' categories."""

    def test_e7_without_vertex_3_builds(self):
        rs = system("E7", (0, 1, 3, 4, 5, 6))
        assert rs.coxeter_numbers == (3, 4, 2)
        assert tuple(coxeter_number(rs, rs.simple_root(v)) for v in range(rs.n)) == \
            (3, 3, 4, 4, 4, 2)
        assert mcluster_category(rs, 2).D is derived_category(rs)

    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_hom_zero_across_components(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        across = [(b, g) for b, g in itertools.product(rs.positive_roots, repeat=2)
                  if _component(rs, b) != _component(rs, g)]
        assert across
        for beta, gamma in across:
            for s, t in itertools.product(range(-1, 3), repeat=2):
                assert d.hom(DerivedObject(beta, s), DerivedObject(gamma, t)) == 0

    def test_hom_matches_exact_witness(self):
        rs = system("E7", (0, 1, 3, 4, 5, 6))
        d = derived_category(rs)
        reps = {b: quiver_rep.indecomposable_for_root(rs, b) for b in rs.positive_roots}
        for (a, x), (b, y) in itertools.product(reps.items(), repeat=2):
            assert d.hom(DerivedObject(a, 0), DerivedObject(b, 0)) == quiver_rep.hom_dim(x, y)
            assert d.hom(DerivedObject(a, 0), DerivedObject(b, 1)) == \
                quiver_rep.ext1_dim(rs, x, y)

    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_translate_keeps_component(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        for beta in rs.positive_roots:
            x = DerivedObject(beta, 0)
            for y, step in ((d.tau(x), 2), (d.tau_inverse(x), -2)):
                assert _component(rs, y.beta) == _component(rs, beta)
                assert fine_degree(d, y) == fine_degree(d, x) + step


class TestDegrees:
    def test_module_slice_coarse_zero(self, a2, da2):
        # Coarse degree is -shift, and the ceiling of fine degree over h.
        for beta in a2.positive_roots:
            assert math.ceil(fine_degree(da2, DerivedObject(beta, 0)) / a2.h) == 0

    def test_negative_simple_fine_degrees(self, a2, da2):
        # minus-side vertex sits in fine degree 2, plus-side in degree 1
        assert fine_degree(da2, da2.V((0, -1))) == 2
        assert fine_degree(da2, da2.V((-1, 0))) == 1

    def test_coarse_is_ceil_of_fine(self, a3, da3):
        for beta in a3.positive_roots:
            for s in range(-2, 3):  # 5-slice window
                x = DerivedObject(beta, s)
                assert -x.shift == math.ceil(fine_degree(da3, x) / a3.h)


@pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
def test_projective_injective_dims_brute_force(name, keep):
    """P_i is e_i plus the heads of the arrows out of i, and I_i is e_i
    plus the tails of the arrows into i, entry by entry."""
    rs = system(name, keep)
    d = derived_category(rs)
    arrows, n = set(rs.arrows), rs.n
    assert d.proj_dims == tuple(tuple(int(j == i) + ((i, j) in arrows) for j in range(n))
                                for i in range(n))
    assert d.inj_dims == tuple(tuple(int(j == i) + ((j, i) in arrows) for j in range(n))
                               for i in range(n))


@pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
class TestRootDataWitness:
    """The closed-form root data equal what ``quiver_rep`` builds."""

    def test_projective_injective_dims(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        q = quiver_rep.BipartiteQuiver.from_root_system(rs)
        assert rs.arrows == q.arrows
        assert d.proj_dims == tuple(quiver_rep.projective(q, i).dims for i in range(rs.n))
        assert d.inj_dims == tuple(quiver_rep.injective(q, i).dims for i in range(rs.n))

    def test_tau_inverse_matches_coxeter(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        for beta in rs.positive_roots:
            gamma = quiver_rep.coxeter_tau_inverse(rs, beta)
            image = d.tau_inverse(DerivedObject(beta, 0))
            if rs.is_positive_root(gamma):
                assert image == DerivedObject(gamma, 0)
            else:
                i = d.inj_dims.index(beta)
                assert image == DerivedObject(d.proj_dims[i], 1)

    def test_tau_matches_coxeter(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        for beta in rs.positive_roots:
            gamma = quiver_rep.coxeter_tau(rs, beta)
            image = d.tau(DerivedObject(beta, 0))
            if rs.is_positive_root(gamma):
                assert image == DerivedObject(gamma, 0)
            else:
                i = d.proj_dims.index(beta)
                assert image == DerivedObject(d.inj_dims[i], -1)

    def test_tau_round_trip(self, name, keep):
        rs = system(name, keep)
        d = derived_category(rs)
        for beta in rs.positive_roots:
            x = DerivedObject(beta, 0)
            assert d.tau(d.tau_inverse(x)) == x
            assert d.tau_inverse(d.tau(x)) == x


def test_derived_does_not_import_quiver_rep():
    tree = ast.parse(inspect.getsource(derived))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not any("quiver_rep" in name or "linalg" in name for name in imported)


class TestTau:
    def test_simple_nonprojective(self, da2):
        assert da2.tau(DerivedObject((1, 0), 0)) == DerivedObject((0, 1), 0)

    def test_projective_rule(self, da2):
        # tau of the big projective is the injective at its vertex, shifted
        assert da2.tau(DerivedObject((1, 1), 0)) == DerivedObject((1, 0), -1)

    def test_shift_identity(self, da2):
        x = DerivedObject((1, 1), 2)
        assert shift(x, 0) == x
        assert shift(shift(x, 3), -3) == x

    def test_tau_raises_fine_by_two(self, a3, da3):
        for beta in a3.positive_roots:
            for s in (-1, 0, 1):
                x = DerivedObject(beta, s)
                assert fine_degree(da3, da3.tau(x)) == fine_degree(da3, x) + 2
                assert fine_degree(da3, shift(x, 1)) == fine_degree(da3, x) - a3.h

    def test_tau_bijective(self, a3, da3):
        for beta in a3.positive_roots:
            for s in (-1, 0, 1):
                x = DerivedObject(beta, s)
                assert da3.tau_inverse(da3.tau(x)) == x
                assert da3.tau(da3.tau_inverse(x)) == x

    def test_tau_commutes_with_shift(self, da3, a3):
        for beta in a3.positive_roots:
            x = DerivedObject(beta, 0)
            assert da3.tau(shift(x, 2)) == shift(da3.tau(x), 2)


class TestHomDerived:
    def test_module_hom(self, da2):
        assert da2.hom(DerivedObject((1, 1), 0), DerivedObject((1, 0), 0)) == 1

    def test_identity_endomorphisms(self, a3, da3):
        for beta in a3.positive_roots:
            x = DerivedObject(beta, 0)
            assert da3.hom(x, x) == 1

    def test_two_slice_support(self, a2, da2):
        for beta, gamma in itertools.product(a2.positive_roots, repeat=2):
            assert da2.hom(DerivedObject(beta, 0), DerivedObject(gamma, 2)) == 0
            assert da2.hom(DerivedObject(beta, 0), DerivedObject(gamma, -1)) == 0

    def test_serre_duality_three_slices(self, a3, da3):
        objs = [DerivedObject(beta, s)
                for beta in a3.positive_roots for s in (0, 1, 2)]
        for x, y in itertools.product(objs, repeat=2):
            assert da3.hom(x, shift(y, 1)) == da3.hom(y, da3.tau(x))


class TestEulerMatrix:
    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_entries_are_euler_form(self, name, keep):
        d = derived_category(system(name, keep))
        roots = d.rs.positive_roots
        assert d.euler_matrix() == [[d._euler(g, e) for e in roots] for g in roots]

    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_packed_rows_are_euler_form(self, name, keep):
        """Lane d of row g is <g, d> plus the bias, in one-byte lanes but
        on E8, whose bound of 174 needs two."""
        d = derived_category(system(name, keep))
        roots = d.rs.positive_roots
        bias, rows = d.euler_rows()
        width = 2 if name == "E8" else 1
        assert bias == 1 << (8 * width - 1)
        assert all(row.itemsize == width and len(row) == len(roots) for row in rows)
        assert [[v - bias for v in row] for row in rows] == [[d._euler(g, e) for e in roots]
                                                             for g in roots]

    @pytest.mark.parametrize("name,bound", [("A8", 8), ("D8", 26), ("E6", 33), ("E7", 68),
                                            ("E8", 174)])
    def test_bound(self, name, bound):
        d = derived_category(system(name))
        roots = d.rs.positive_roots
        us = [d._euler_row(g) for g in roots]
        assert derived._euler_bound(us, roots) == bound
        assert bound >= max(abs(d._euler(g, e)) for g in roots for e in roots)

    @pytest.mark.parametrize("bound,width", [(127, 1), (128, 2), (2 ** 15 - 1, 2)])
    def test_width_follows_the_bound(self, monkeypatch, bound, width):
        """The lanes are as wide as the bound asks, whatever the entries:
        a bound across 127 packs E6's rows into two-byte lanes, and they
        read the same matrix."""
        d = derived_category(system("E6"))
        dense = d.euler_matrix()
        monkeypatch.setattr(derived, "_euler_bound", lambda us, roots: bound)
        bias, rows = d.euler_rows()
        assert bias == 1 << (8 * width - 1) and {row.itemsize for row in rows} == {width}
        assert d.euler_matrix() == dense

    def test_no_width_fits(self, monkeypatch):
        monkeypatch.setattr(derived, "_euler_bound", lambda us, roots: 2 ** 15)
        with pytest.raises(ValueError, match="fits no lane width"):
            derived_category(system("A2")).euler_rows()


class TestV:
    def test_positive_clause(self, da2):
        assert da2.V((1, 1)) == DerivedObject((1, 1), 0)

    def test_negative_simple(self, da2):
        assert da2.V((0, -1)) == DerivedObject((1, 1), -1)

    def test_image_in_fundamental_domain(self, a3, da3):
        ground = list(a3.positive_roots) + [a3.negative_simple(i) for i in range(a3.n)]
        degrees = [fine_degree(da3, da3.V(a)) for a in ground]
        assert all(-a3.h + 1 <= d <= 2 for d in degrees)
        assert len({da3.V(a) for a in ground}) == len(ground)

    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_rotation_becomes_shift(self, name):
        # V(R(alpha)) equals V(alpha)[1] once both are reduced into the
        # fundamental domain of the m=1 orbit automorphism.
        from mclusters.coloured_roots import rotation_R
        rs = build_root_system(parse_type(name))
        d = derived_category(rs)
        cat = mcluster_category(rs, 1)
        ground = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        for alpha in ground:
            assert reduce_walk(cat, shift(d.V(alpha), 1)) == d.V(rotation_R(rs, alpha))


class TestDotExport:
    def test_a2_single_slice(self, da2):
        dot = da2.export_zq_dot(0, 0)
        assert dot.count("[label=") == 3
        assert dot.count("->") == 2

    def test_empty_window(self, da2):
        dot = da2.export_zq_dot(1, 0)
        assert "label" not in dot and "->" not in dot

    def test_a3_slice_counts(self, a3, da3):
        dot = da3.export_zq_dot(0, 0)
        assert dot.count("[label=") == len(a3.positive_roots)

    def test_deterministic(self, da3):
        assert da3.export_zq_dot(-1, 1) == da3.export_zq_dot(-1, 1)

    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_label_fine_degree_is_reference(self, name, keep):
        # Each label reads dF off its row index; it must be the reference
        # fine degree of its object, in windows on and off degree 0.
        d = derived_category(system(name, keep))
        label = re.compile(r'label="\(\d+,-?\d+\) dF=(-?\d+) V\(([\d,]+)\)\[(-?\d+)\]"')
        for lo, hi in ((-3, 3), (2, 4), (-4, -1)):
            dot = d.export_zq_dot(lo, hi)
            labels = label.findall(dot)
            assert labels and len(labels) == dot.count("[label=")
            for dF, beta, s in labels:
                x = DerivedObject(tuple(map(int, beta.split(","))), int(s))
                assert int(dF) == fine_degree(d, x)
