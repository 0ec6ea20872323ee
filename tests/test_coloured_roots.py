import itertools
import tracemalloc

import pytest

from conftest import REDUCIBLE, system
from mclusters import (ColouredRoot, build_root_system, compatible_combinatorial,
                       coloured_ground_set, parse_type, rotation_R, rotation_Rm,
                       tau_eps)
from mclusters import coloured_roots
from mclusters.coloured_roots import coloured_to_json, compatibility_degree, rotation_table


def neg(rs, i):
    return rs.negative_simple(i)


class TestTau:
    def test_fixed_point(self, a2):
        # 2nd vertex is on the minus side, so tau_+ fixes -alpha_2
        assert tau_eps(a2, 1, neg(a2, 1)) == neg(a2, 1)

    def test_tau_plus_on_simple(self, a2):
        assert tau_eps(a2, 1, (1, 0)) == (-1, 0)

    def test_tau_minus_on_simple(self, a2):
        assert tau_eps(a2, -1, (0, 1)) == (0, -1)

    def test_rejects_non_almost_positive(self, a2):
        with pytest.raises(ValueError):
            tau_eps(a2, 1, (-1, -1))

    def test_tau_eps_involution(self, a3):
        ground = list(a3.positive_roots) + [neg(a3, i) for i in range(a3.n)]
        for beta in ground:
            for eps in (1, -1):
                assert tau_eps(a3, eps, tau_eps(a3, eps, beta)) == beta


class TestRotation:
    def test_examples(self, a2):
        assert rotation_R(a2, neg(a2, 0)) == (1, 0)
        assert rotation_R(a2, (0, 1)) == (0, -1)

    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_orbit_meets_negative_simples(self, name):
        rs = build_root_system(parse_type(name))
        ground = list(rs.positive_roots) + [neg(rs, i) for i in range(rs.n)]
        for beta in ground:
            seen_negative = False
            x = beta
            for _ in range(len(ground) + 1):
                if rs.negative_simple_index(x) is not None:
                    seen_negative = True
                    break
                x = rotation_R(rs, x)
            assert seen_negative

    def test_R_bijection(self, a3):
        ground = list(a3.positive_roots) + [neg(a3, i) for i in range(a3.n)]
        images = {rotation_R(a3, beta) for beta in ground}
        assert images == set(ground)


class TestRotationRm:
    def test_colour_increment(self, a2):
        x = ColouredRoot((1, 0), 1)
        assert rotation_Rm(a2, 3, x) == ColouredRoot((1, 0), 2)

    def test_wraparound(self, a2):
        assert rotation_Rm(a2, 2, ColouredRoot((0, 1), 2)) == ColouredRoot((0, -1), 1)

    def test_m1_degenerates_to_R(self, a3):
        ground = list(a3.positive_roots) + [neg(a3, i) for i in range(a3.n)]
        for beta in ground:
            assert rotation_Rm(a3, 1, ColouredRoot(beta, 1)).root == rotation_R(a3, beta)

    def test_colour_out_of_range(self, a2):
        with pytest.raises(ValueError):
            rotation_Rm(a2, 2, ColouredRoot((1, 0), 3))
        with pytest.raises(ValueError):
            rotation_Rm(a2, 2, ColouredRoot(neg(a2, 0), 2))

    @pytest.mark.parametrize("name,m", [("A2", 3), ("A3", 2), ("D4", 2)])
    def test_bijection(self, name, m):
        rs = build_root_system(parse_type(name))
        ground = coloured_ground_set(rs, m)
        assert len(ground) == m * len(rs.positive_roots) + rs.n
        images = {rotation_Rm(rs, m, x) for x in ground}
        assert images == set(ground)


class TestCompatibilityDegree:
    def test_coefficient_rule(self, a2):
        assert compatibility_degree(a2, (1, 1), neg(a2, 0)) == 1

    def test_negative_negative(self, a3):
        for i in range(3):
            for j in range(3):
                assert compatibility_degree(a3, neg(a3, i), neg(a3, j)) == 0

    def test_two_simples(self, a2):
        # alpha_1 and alpha_2 do not share a cluster in A2: degree 1.
        assert compatibility_degree(a2, (1, 0), (0, 1)) == 1
        assert compatibility_degree(a2, (0, 1), (1, 0)) == 1

    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_rotation_invariance_and_symmetry(self, name):
        rs = build_root_system(parse_type(name))
        ground = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        for beta, alpha in itertools.product(ground, repeat=2):
            d = compatibility_degree(rs, beta, alpha)
            assert d == compatibility_degree(rs, rotation_R(rs, beta), rotation_R(rs, alpha))
            assert d == compatibility_degree(rs, alpha, beta)


class TestCompatible:
    def test_negative_simples_pairwise(self, a3):
        for i in range(3):
            for j in range(3):
                assert compatible_combinatorial(
                    a3, 2, ColouredRoot(neg(a3, i)), ColouredRoot(neg(a3, j)))

    def test_m1_coefficient(self, a2):
        assert not compatible_combinatorial(
            a2, 1, ColouredRoot(neg(a2, 0)), ColouredRoot((1, 1), 1))

    def test_same_root_two_colours(self, a2):
        assert not compatible_combinatorial(
            a2, 2, ColouredRoot((1, 0), 1), ColouredRoot((1, 0), 2))

    @pytest.mark.parametrize("name,m", [("A2", 2), ("A3", 2)])
    def test_symmetry(self, name, m):
        rs = build_root_system(parse_type(name))
        ground = coloured_ground_set(rs, m)
        for x, y in itertools.combinations(ground, 2):
            assert (compatible_combinatorial(rs, m, x, y)
                    == compatible_combinatorial(rs, m, y, x))

    @pytest.mark.parametrize("name,m", [("A2", 2), ("A3", 2)])
    def test_rotation_invariance(self, name, m):
        rs = build_root_system(parse_type(name))
        ground = coloured_ground_set(rs, m)
        for x, y in itertools.combinations_with_replacement(ground, 2):
            assert (compatible_combinatorial(rs, m, x, y)
                    == compatible_combinatorial(rs, m,
                                                rotation_Rm(rs, m, x),
                                                rotation_Rm(rs, m, y)))

    @pytest.mark.parametrize("name,m", [("A2", 2), ("A3", 2)])
    def test_well_defined_at_every_rotation(self, name, m):
        # Rule (m1) must give the same verdict whenever a negative simple
        # shows up in the jointly rotated pair.
        rs = build_root_system(parse_type(name))
        ground = coloured_ground_set(rs, m)
        cap = len(ground) * 4
        for x, y in itertools.combinations(ground, 2):
            expected = compatible_combinatorial(rs, m, x, y)
            a, b = x, y
            for _ in range(cap):
                i = rs.negative_simple_index(a.root)
                other = b
                if i is None:
                    i = rs.negative_simple_index(b.root)
                    other = a
                if i is not None:
                    verdict = (rs.negative_simple_index(other.root) is not None
                               or other.root[i] == 0)
                    assert verdict == expected
                a = rotation_Rm(rs, m, a)
                b = rotation_Rm(rs, m, b)

    def test_m1_matches_degree_zero(self, a3):
        ground = list(a3.positive_roots) + [neg(a3, i) for i in range(a3.n)]
        for beta, alpha in itertools.product(ground, repeat=2):
            assert (compatible_combinatorial(a3, 1, ColouredRoot(beta), ColouredRoot(alpha))
                    == (compatibility_degree(a3, beta, alpha) == 0))


TABLE_SYSTEMS = [("A1", None), ("A2", None), ("A3", None), ("A4", None), ("A5", None),
                 ("D4", None), ("D5", None), ("D6", None), ("E6", None)] + REDUCIBLE


class TestRotationTable:
    """The table is checked against the per-pair joint rotation, which
    stays the reference."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name,keep", TABLE_SYSTEMS)
    def test_matches_joint_rotation_on_every_pair(self, name, keep, m):
        rs = system(name, keep)
        table = rotation_table(rs, m)
        nodes = table.nodes
        assert list(nodes) == coloured_ground_set(rs, m)
        for a, x in enumerate(nodes):
            for b, y in enumerate(nodes):
                assert table.compatible(a, b) == compatible_combinatorial(rs, m, x, y)
                assert table.degree(a, b) == coloured_roots._reading(rs, m, x, y)

    @pytest.mark.parametrize("name", ["A5", "D6", "E6"])
    def test_degree_matches_joint_rotation(self, name):
        rs = build_root_system(parse_type(name))
        table = rotation_table(rs, 1)
        roots = [x.root for x in table.nodes]
        for a, beta in enumerate(roots):
            for b, alpha in enumerate(roots):
                assert table.degree(a, b) == compatibility_degree(rs, beta, alpha)

    def test_perm_is_Rm_and_hit_is_first_negative_simple(self, a3):
        table = rotation_table(a3, 2)
        for k, x in enumerate(table.nodes):
            assert table.nodes[table.perm[k]] == rotation_Rm(a3, 2, x)
            walk = [k]
            for _ in range(table.hit[k]):
                walk.append(table.perm[walk[-1]])
            walk = [table.nodes[j] for j in walk]
            assert walk[0] == x
            assert [a3.negative_simple_index(y.root) is not None for y in walk] == (
                [False] * table.hit[k] + [True])

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("name,keep", TABLE_SYSTEMS)
    def test_runs_split_the_nodes(self, name, keep, m):
        """Run i starts at -alpha_i, each node sits once in the run it lands
        on at its hitting time, and each step along a run is R_m backwards."""
        rs = system(name, keep)
        table = rotation_table(rs, m)
        assert sorted(k for run in table.runs for k in run) == list(range(len(table.nodes)))
        for i, run in enumerate(table.runs):
            assert table.nodes[run[0]] == ColouredRoot(neg(rs, i), 1)
            assert all(table.perm[later] == k for k, later in zip(run, run[1:]))
        for k in range(len(table.nodes)):
            assert table.runs[table.lands[k]][table.hit[k]] == k

    def test_state_is_linear_in_nodes(self):
        """The table holds O(nodes) state: 3,002 nodes at A2 m=1000."""
        rs = build_root_system(parse_type("A2"))
        tracemalloc.start()
        try:
            table = coloured_roots.RotationTable(rs, 1000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table.nodes) == 3002 and held < 2 * 2 ** 20

    def test_kept_per_system(self, a3):
        assert rotation_table(a3, 2) is rotation_table(a3, 2)
        assert rotation_table(a3, 2) is not rotation_table(a3, 1)
        fresh = build_root_system(parse_type("A3"))
        assert rotation_table(fresh, 2) is not rotation_table(a3, 2)

    def test_cap_exceeded_raises_like_joint_rotation(self, monkeypatch):
        rs = build_root_system(parse_type("A2"))
        monkeypatch.setattr(coloured_roots, "_rotation_cap", lambda rs, m: 1)
        x = ColouredRoot((1, 1), 1)
        with pytest.raises(RuntimeError, match="rotation cap exceeded"):
            compatible_combinatorial(rs, 1, x, x)
        # An identity step lands no positive node on a negative simple.
        monkeypatch.setattr(coloured_roots, "_step", lambda rs, m, x: x)
        with pytest.raises(RuntimeError, match="no negative simple"):
            rotation_table(rs, 1)


def test_json_roundtrip():
    assert coloured_to_json(ColouredRoot((1, 1, 0), 2)) == {"coeffs": [1, 1, 0], "colour": 2}
    data = coloured_to_json(ColouredRoot((0, -1, 0), 1))
    assert data == {"coeffs": [0, -1, 0], "colour": 1}
