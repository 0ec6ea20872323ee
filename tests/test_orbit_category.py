import gc
import itertools
import weakref

import pytest

from conftest import (ALL_SYSTEMS, REDUCIBLE, G, dense_ext, in_domain, orbit_sum, reduce_walk,
                      system)
from mclusters import (ColouredRoot, DerivedObject, build_root_system,
                       compatible_combinatorial, coloured_ground_set,
                       derived_category, parse_type, rotation_Rm, rotation_table, shift)
from mclusters.cli import main
from mclusters.cluster_complex import ORACLES, build_graph
from mclusters.coloured_roots import compatibility_degree
from mclusters.orbit_category import MClusterCategory, mcluster_category


class TestW:
    def test_colour_one(self, a2):
        cat = mcluster_category(a2, 2)
        for beta in a2.positive_roots:
            assert cat.W(ColouredRoot(beta, 1)) == DerivedObject(beta, 0)

    def test_colour_shift(self, a2):
        cat = mcluster_category(a2, 2)
        assert cat.W(ColouredRoot((1, 0), 2)) == DerivedObject((1, 0), 1)

    def test_negative_simple(self, a2):
        cat = mcluster_category(a2, 2)
        assert cat.W(ColouredRoot(a2.negative_simple(1))) == DerivedObject((1, 1), -1)

    def test_colour_out_of_range(self, a2):
        cat = mcluster_category(a2, 2)
        with pytest.raises(ValueError):
            cat.W(ColouredRoot((1, 0), 3))

    @staticmethod
    def check_bijection(rs, m):
        cat = mcluster_category(rs, m)
        ground = coloured_ground_set(rs, m)
        objs = [cat.W(x) for x in ground]
        assert len(set(objs)) == len(ground)
        for x, obj in zip(ground, objs):
            assert in_domain(cat, obj)
            assert cat.W_inverse(obj) == x

    @pytest.mark.parametrize("name,m", [("A2", 3), ("A3", 2), ("D4", 2)])
    def test_bijection_onto_fundamental_domain(self, name, m):
        self.check_bijection(system(name), m)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_bijection_onto_fundamental_domain_reducible(self, name, keep, m):
        self.check_bijection(system(name, keep), m)

    def test_w_inverse_rejects_outside(self, a2):
        cat = mcluster_category(a2, 1)
        with pytest.raises(ValueError):
            cat.W_inverse(DerivedObject((1, 0), 5))


class TestExtOrbit:
    def test_a2_m2_example(self, a2):
        cat = mcluster_category(a2, 2)
        x = cat.W(ColouredRoot((1, 0), 1))
        y = cat.W(ColouredRoot((1, 0), 2))
        assert cat.ext(x, y, 2) == 1
        assert cat.ext(x, y, 1) == 0

    @pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2)])
    def test_rigidity(self, name, m):
        rs = build_root_system(parse_type(name))
        cat = mcluster_category(rs, m)
        for X in cat.objects():
            for i in range(1, m + 1):
                assert cat.ext(X, X, i) == 0

    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_m1_gives_compatibility_degree(self, name):
        rs = build_root_system(parse_type(name))
        cat = mcluster_category(rs, 1)
        d = derived_category(rs)
        ground = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        for beta, alpha in itertools.product(ground, repeat=2):
            assert cat.ext(d.V(beta), d.V(alpha), 1) == compatibility_degree(rs, beta, alpha)

    def test_degree_out_of_range(self, a2):
        cat = mcluster_category(a2, 2)
        X = cat.W(ColouredRoot((1, 0), 1))
        with pytest.raises(ValueError):
            cat.ext(X, X, 3)

    @pytest.mark.parametrize("name,m", [("A2", 2), ("A3", 2)])
    def test_orbit_sum_truncation_sound(self, name, m):
        rs = build_root_system(parse_type(name))
        cat = mcluster_category(rs, m)
        objs = cat.objects()
        for X, Y in itertools.product(objs, repeat=2):
            for i in range(1, m + 1):
                assert cat.ext(X, Y, i) == orbit_sum(cat, X, Y, i)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_window_theorem(self, name, keep, m):
        # G raises the shift by m or m+1, so G^2 X and G^-2 X are out of
        # Hom reach of every Y[i], whose shift is in [0, 2m-1].
        cat = MClusterCategory(system(name, keep), m)
        # For the Hom table, G X is above all of W's image, and G^-2 X is
        # more than one shift below it but at m=1, where it can sit one
        # below an injective I_j[-1], and Ext^1 into I_j is 0.
        objs = cat.objects()
        for X in objs:
            up, down = G(cat, X), cat.G_inverse(X)
            assert up.shift - X.shift in (m, m + 1)
            assert X.shift - down.shift in (m, m + 1)
            assert G(cat, up).shift >= 2 * m
            assert cat.G_inverse(down).shift <= -2
            assert up.shift >= m
            if cat.G_inverse(down).shift == -2:
                assert m == 1
                assert all(cat.D.hom(cat.G_inverse(down), Z) == 0 for Z in objs if Z.shift == -1)

    @pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1), ("E6", 3)])
    def test_outside_w_image_rejected(self, name, m):
        rs = system(name)
        cat = MClusterCategory(rs, m)
        inside = cat.objects()[0]
        beta = next(b for b in rs.positive_roots if b not in cat.D.inj_dims)
        injective = cat.D.inj_dims[0]
        for outside in (DerivedObject(beta, m), DerivedObject(beta, -1),
                        DerivedObject(injective, -2)):
            for x, y in ((outside, inside), (inside, outside)):
                with pytest.raises(ValueError, match="not in the image of W"):
                    cat.ext(x, y, 1)


class TestExtTable:
    @staticmethod
    def check_entries(rs, m):
        cat = mcluster_category(rs, m)
        H = cat.hom_entries()
        table = dense_ext(cat)
        ground = coloured_ground_set(rs, m)
        assert tuple(ground) == rotation_table(rs, m).nodes
        objs, ext = [cat.W(x) for x in ground], cat.ext_by_id()
        # H against Hom summed over the orbit, G^-4 X to G^4 X.
        for a, X in enumerate(objs):
            assert H[a] == {c: v for c, Z in enumerate(objs) if (v := orbit_sum(cat, X, Z, 0))}
        assert len(table) == m
        for i in range(1, m + 1):
            assert len(table[i - 1]) == len(ground)
            for a, X in enumerate(objs):
                assert table[i - 1][a] == [cat.ext(X, Y, i) for Y in objs]
                assert table[i - 1][a] == [ext(i, a, b) for b in range(len(ground))]
        assert cat.hom_entries() is H

    @pytest.mark.parametrize("name,m", [("A3", 1), ("A3", 2), ("A3", 3), ("D4", 2), ("E6", 1)])
    def test_entries_are_orbit_ext(self, name, m):
        self.check_entries(system(name), m)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_entries_are_orbit_ext_reducible(self, name, keep, m):
        self.check_entries(system(name, keep), m)

    def test_off_image_stays_off_in_every_power(self, monkeypatch):
        """The landing step by G instead of G^-1 sends some W(b)[1] outside
        W's image, so sigma(b) = -1; every later power of b is -1 too, not
        sigma of the last node.  H(a, a) = 1 at every node a, so a power
        that reached a node c would read Ext^i(c, b) = 1."""
        monkeypatch.setattr(MClusterCategory, "_land",
                            lambda self, y: y if in_domain(self, y) else G(self, y))
        cat = MClusterCategory(system("A3"), 2)
        sigma, H, ext = cat.shift_permutation(), cat.hom_entries(), cat.ext_by_id()
        lost = [b for b, c in enumerate(sigma) if c < 0]
        assert lost and sigma[-1] >= 0
        assert all(row[a] == 1 for a, row in enumerate(H))
        for b in lost:
            for i in range(1, cat.m + 1):
                assert [ext(i, a, b) for a in range(len(sigma))] == [0] * len(sigma), (b, i)

    @pytest.mark.parametrize("command", ["compat", "ext"])
    def test_single_pair_queries_do_not_build_it(self, monkeypatch, command):
        def refuse(self):
            raise AssertionError("Hom table or shift built for a single pair")

        monkeypatch.setattr(MClusterCategory, "_build_hom_entries", refuse)
        monkeypatch.setattr(MClusterCategory, "_build_shift", refuse)
        assert main([command, "--type", "A3", "--m", "2", "--", "1,1,0:1", "0,1,1:2"]) == 0


class TestHomTableAndShift:
    """The shift sigma on node ids and the Hom table H, on every system at
    m = 1..3."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_identities(self, name, keep, m):
        rs = system(name, keep)
        cat = MClusterCategory(rs, m)
        H, sigma = cat.hom_entries(), cat.shift_permutation()
        assert sigma == rotation_table(rs, m).perm
        size = len(sigma)
        power = list(range(size))  # sigma^(m+1)
        for _ in range(m + 1):
            power = [sigma[a] for a in power]
        for a, row in enumerate(H):
            assert row[a] == 1
            for c, value in row.items():
                assert value > 0
                assert H[sigma[a]].get(sigma[c]) == value
                assert H[c].get(power[a]) == value
        nonzero = sum(1 for t in dense_ext(cat) for row in t for value in row if value)
        assert m * sum(map(len, H)) == nonzero


class TestExtSumIsReading:
    """An observed identity, checked here and not claimed as a theorem:
    at every m, the Ext dimensions between W(a) and W(b) summed over all
    degrees equal the joint-rotation reading ``RotationTable.degree(a, b)``.
    At m = 1 it is the Ext^1 = compatibility degree check."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_every_ordered_pair(self, name, keep, m):
        rs = system(name, keep)
        table = rotation_table(rs, m)
        size = len(table.nodes)
        total = [[0] * size for _ in range(size)]
        for _, a, b, value in mcluster_category(rs, m).ext_instances():
            total[a][b] += value
        assert total == [[table.degree(a, b) for b in range(size)] for a in range(size)]


class TestCompatibleCategorical:
    def test_self_compatible(self, a2):
        cat = mcluster_category(a2, 2)
        for x in coloured_ground_set(a2, 2):
            assert cat.compatible(x, x)

    def test_m1_coefficient_case(self, a2):
        cat = mcluster_category(a2, 1)
        assert not cat.compatible(ColouredRoot((1, 1), 1),
                                  ColouredRoot(a2.negative_simple(0)))

    @pytest.mark.parametrize("name,m", [("A2", 2), ("A3", 2)])
    def test_matches_combinatorial(self, name, m):
        rs = build_root_system(parse_type(name))
        cat = mcluster_category(rs, m)
        ground = coloured_ground_set(rs, m)
        for x, y in itertools.combinations_with_replacement(ground, 2):
            assert cat.compatible(x, y) == compatible_combinatorial(rs, m, x, y)


class TestShiftVersusRotation:
    def test_colour_increment_case(self, a3):
        cat = mcluster_category(a3, 2)
        for beta in a3.positive_roots:
            assert cat.shift_matches_rotation(ColouredRoot(beta, 1))

    def test_negative_simple_m1(self, a2):
        cat = mcluster_category(a2, 1)
        assert cat.shift_matches_rotation(ColouredRoot(a2.negative_simple(0)))
        # by hand: W(-a1)[1] = I_1 = S_1 = V(a1), and R(-a1) = a1
        assert reduce_walk(cat, shift(cat.W(ColouredRoot(a2.negative_simple(0))), 1)) \
            == DerivedObject((1, 0), 0)

    @staticmethod
    def check_all(rs, m):
        cat = mcluster_category(rs, m)
        for x in coloured_ground_set(rs, m):
            assert cat.shift_matches_rotation(x)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_one_step_theorem(self, name, keep, m):
        # The orbit walk from W(x)[1] takes no step inside the fundamental
        # domain and exactly one G^-1 step outside it, and lands on
        # W(R_m x).
        rs = system(name, keep)
        cat = MClusterCategory(rs, m)
        for x in coloured_ground_set(rs, m):
            y = shift(cat.W(x), 1)
            landed = reduce_walk(cat, y)
            assert landed in (y, cat.G_inverse(y))
            assert (landed == y) == in_domain(cat, y)
            assert landed == cat.W(rotation_Rm(rs, m, x))

    @pytest.mark.parametrize("name,m", [("A2", 3), ("A3", 2), ("D4", 2)])
    def test_exhaustive(self, name, m):
        self.check_all(system(name), m)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_exhaustive_reducible(self, name, keep, m):
        self.check_all(system(name, keep), m)


class TestExtSymmetry:
    def test_same_object(self, a2):
        cat = mcluster_category(a2, 2)
        X = cat.W(ColouredRoot((1, 1), 2))
        for i in (1, 2):
            assert cat.ext_symmetry(X, X, i)

    @staticmethod
    def check_all(rs, m):
        cat = mcluster_category(rs, m)
        objs = cat.objects()
        for X, Y in itertools.product(objs, repeat=2):
            for i in range(1, m + 1):
                assert cat.ext_symmetry(X, Y, i)

    @pytest.mark.parametrize("name,m", [("A2", 3), ("A3", 2), ("D4", 1)])
    def test_exhaustive(self, name, m):
        self.check_all(system(name), m)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_exhaustive_reducible(self, name, keep, m):
        self.check_all(system(name, keep), m)


class TestCategoryLifetime:
    def test_cached_per_system(self, a2):
        assert mcluster_category(a2, 2) is mcluster_category(a2, 2)
        assert mcluster_category(a2, 2).D is derived_category(a2)

    def test_everything_built_lives_in_memo(self):
        def build(rs):
            for oracle in ORACLES:
                build_graph(rs, 2, oracle)
            d, cat = derived_category(rs), mcluster_category(rs, 2)
            return [cat.hom_entries(), cat.shift_permutation(), d, cat, rotation_table(rs, 2)]

        rs, fresh = system("A3"), system("A3")
        built = build(rs)
        assert sorted(map(id, rs.memo.values())) == sorted(map(id, built))
        assert not {id(v) for v in build(fresh)} & set(map(id, built))

    def test_freed_with_root_system(self):
        alive = []
        for _ in range(300):
            rs = build_root_system(parse_type("A3"))
            alive.append(weakref.ref(mcluster_category(rs, 2).D))
        del rs
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= 2
