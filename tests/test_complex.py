import copy
import itertools
import random
from collections import Counter
from math import comb

import pytest

from conftest import (ALL_SYSTEMS, REDUCIBLE, corrupt, facet_count, fuss_catalan,
                      naive_maximal_cliques, pairwise, restriction_pairs, system)
from mclusters import (ColouredRoot, build_graph, build_root_system, complements,
                       complex_to_json, enumerate_facets, f_vector, mcluster_category,
                       parabolic, parse_type, rotation_table, verify_complement_counts,
                       verify_facet_sizes, verify_parabolic_restriction,
                       verify_vertex_deletions, walk_faces)
from mclusters import cluster_complex
from mclusters.cluster_complex import ridge_counts


@pytest.fixture(scope="module")
def ga2(a2):
    return build_graph(a2, 1)


class TestBuildGraph:
    def test_a1_m1(self):
        rs = build_root_system(parse_type("A1"))
        g = build_graph(rs, 1)
        assert len(g.nodes) == 2
        assert not g.adjacency[0] >> 1 & 1
        assert g.adjacency[0] >> 0 & 1 and g.adjacency[1] >> 1 & 1

    def test_a2_m1_pentagon(self, ga2):
        assert len(ga2.nodes) == 5
        facets = enumerate_facets(ga2)
        assert len(facets) == 5
        assert all(len(f.indices) == 2 for f in facets)

    def test_adjacency_symmetric(self):
        """Every row holds its own bit and the rows are symmetric, under
        both oracles, on every system at m=1 and the reducible ones at m=2."""
        cases = [(name, keep, 1) for name, keep in ALL_SYSTEMS]
        cases += [(name, keep, 2) for name, keep in REDUCIBLE]
        for name, keep, m in cases:
            rs = system(name, keep)
            for oracle in ("combinatorial", "categorical"):
                rows = build_graph(rs, m, oracle).adjacency
                assert len(rows) == m * len(rs.positive_roots) + rs.n
                for a, row in enumerate(rows):
                    assert row >> a & 1, (name, keep, m, oracle, a)
                    assert all(rows[b] >> a & 1 == row >> b & 1 for b in range(len(rows))), \
                        (name, keep, m, oracle, a)

    def test_oracles_agree_entrywise(self, a2):
        g_comb = build_graph(a2, 2, "combinatorial")
        g_cat = build_graph(a2, 2, "categorical")
        assert g_comb.adjacency == g_cat.adjacency

    @pytest.mark.parametrize("name", ["E6", "E7", "E8"])
    def test_oracles_agree_exceptional_m1(self, name):
        rs = build_root_system(parse_type(name))
        g_comb = build_graph(rs, 1, "combinatorial")
        g_cat = build_graph(rs, 1, "categorical")
        assert g_comb.nodes == g_cat.nodes
        assert g_comb.adjacency == g_cat.adjacency

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name,keep", REDUCIBLE)
    def test_oracles_agree_reducible(self, name, keep, m):
        sub = system(name, keep)
        assert not sub.irreducible
        g_comb = build_graph(sub, m, "combinatorial")
        g_cat = build_graph(sub, m, "categorical")
        assert g_comb.adjacency == g_cat.adjacency

    def test_bad_oracle(self, a2):
        with pytest.raises(ValueError):
            build_graph(a2, 1, "guesswork")

    @pytest.mark.parametrize("name,keep,m",
                             [(name, keep, m) for name, keep in ALL_SYSTEMS for m in (1, 2, 3)]
                             + [("A1", None, m) for m in (4, 5)] + [("A2", None, 50)])
    def test_rotated_rows_are_pairwise(self, name, keep, m):
        """The combinatorial graph, rotated from the rows of the negative
        simples, is the graph read off the table pair by pair."""
        rs = system(name, keep)
        g = build_graph(rs, m)
        assert g.adjacency == pairwise(len(g.nodes), rotation_table(rs, m).compatible)


class TestRowPremises:
    """The premises under which ``verify`` compares the oracles on n rows
    hold on every system at m = 1..3, and each premise says what it claims."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
    def test_hold(self, name, keep, m):
        rs = system(name, keep)
        g, cat = build_graph(rs, m), mcluster_category(rs, m)
        assert cluster_complex._invariant(g)
        assert cluster_complex.failed_premises(g) == []
        # The rows read off H are the categorical graph's, on every node.
        assert cat.compatible_rows(range(len(g.nodes))) == g.adjacency

    @pytest.mark.parametrize("name,m", [("A3", 1), ("A3", 2), ("D4", 3), ("E6", 1)]
                             + [(name, 2) for name, _ in REDUCIBLE])
    def test_deletions_on_rows(self, name, m):
        """Without a categorical graph, the reports of both oracles."""
        rs = system(name)
        g = build_graph(rs, m)
        expected = verify_vertex_deletions([g, build_graph(rs, m, "categorical")])
        got, _ = cluster_complex.verify_vertex_deletions_on_rows(g, lambda: True)
        assert [(r.passed, r.checked) for r in got] == [(r.passed, r.checked) for r in expected]

    def test_subsystem_refused(self, a3, monkeypatch):
        """A subsystem whose graph is not invariant fails its report on that
        premise, and is no link: the faces are not counted."""
        real = cluster_complex.build_graph

        def flipped(rs, m, oracle="combinatorial"):
            g = real(rs, m, oracle)
            if rs.n == 2:
                g.adjacency = [g.adjacency[0] ^ 2, g.adjacency[1] ^ 1] + g.adjacency[2:]
            return g

        monkeypatch.setattr(cluster_complex, "build_graph", flipped)
        reports, walk = cluster_complex.verify_vertex_deletions_on_rows(real(a3, 2), lambda: True)
        assert [(r.passed, r.premise) for r in reports] == [(False, "R_m invariance")] * 3
        assert walk is None

    def test_tampered_hom_refused(self):
        """One H entry bumped breaks the shift's invariance; one entry and
        every shift of it, but not its Serre mirrors, break the duality.
        The table is edited in place, so its system is built here."""
        cat = mcluster_category(system("A3"), 2)
        H, sigma = cat.hom_entries(), cat.shift_permutation()
        a, c = next((a, c) for a, row in enumerate(H) for c in row if c != a)
        H[a][c] += 1
        assert not cat.shift_invariant()
        x, y = sigma[a], sigma[c]
        while (x, y) != (a, c):
            H[x][y] += 1
            x, y = sigma[x], sigma[y]
        assert not cat.shift_invariant()

    def test_row_mismatch_refused(self, a3):
        g = build_graph(a3, 2)
        neg = rotation_table(a3, 2).runs[0][0]
        g.adjacency = list(g.adjacency)
        g.adjacency[neg] ^= 1
        assert cluster_complex.failed_premises(g) == ["R_m invariance", "-alpha_i rows"]

    def test_other_rotation_refused(self, a3):
        g = build_graph(a3, 2)
        g.rotation = (g.rotation[1], g.rotation[0]) + g.rotation[2:]
        assert cluster_complex.failed_premises(g) == ["shift = R_m"]


class TestFacets:
    @pytest.mark.parametrize("name,m,count", [("A2", 1, 5), ("A2", 2, 12), ("A3", 1, 14)])
    def test_fixture_counts(self, name, m, count):
        rs = build_root_system(parse_type(name))
        facets = enumerate_facets(build_graph(rs, m))
        assert len(facets) == count
        assert count == fuss_catalan(rs, m)

    @pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 3), ("A3", 2), ("D4", 1)])
    def test_matches_naive_enumeration(self, name, m):
        rs = build_root_system(parse_type(name))
        g = build_graph(rs, m)
        assert len(g.nodes) <= 40
        assert [f.indices for f in enumerate_facets(g)] == naive_maximal_cliques(g.adjacency)

    def test_facet_sizes(self, d4):
        facets = enumerate_facets(build_graph(d4, 1))
        report = verify_facet_sizes(facets, d4.n)
        assert report.passed and report.checked == len(facets)

    def test_a3_m2_sizes(self, a3):
        report = verify_facet_sizes(enumerate_facets(build_graph(a3, 2)), a3.n)
        assert report.passed

    def test_a1_singletons(self):
        rs = build_root_system(parse_type("A1"))
        for m in (1, 2, 5):
            g = build_graph(rs, m)
            facets = enumerate_facets(g)
            assert len(facets) == m + 1
            assert all(len(f.indices) == 1 for f in facets)
            # The empty face is the only ridge; all m+1 nodes complete it.
            walk = walk_faces(g)
            assert walk.ridges == {m + 1: 1} and walk.facet_sizes == {1: m + 1}

    @staticmethod
    def check_against_brute_force(g, seen):
        """The walk of ``g``, with and without a facet list, against every
        clique listed by ``itertools.combinations``."""
        size, rank, rows = len(g.nodes), g.rs.n, g.adjacency
        cliques = [c for k in range(size + 1) for c in itertools.combinations(range(size), k)
                   if all(rows[a] >> b & 1 for a, b in itertools.combinations(c, 2))]

        def common(c):
            return [u for u in range(size) if u not in c
                    and all(rows[u] >> b & 1 for b in c)]
        facets = sorted(c for c in cliques if not common(c))
        by_size = Counter(map(len, cliques))
        facets_found = []
        for walk in walk_faces(g, facets_found), walk_faces(g):
            assert walk.f_vector == [by_size[k] for k in range(max(by_size) + 1)]
            assert walk.facet_sizes == dict(Counter(map(len, facets)))
            assert walk.ridges == dict(Counter(len(common(c)) for c in cliques
                                               if len(c) == rank - 1))
        assert [tuple(f) for f in facets_found] == facets
        assert all(type(f) is tuple for f in facets_found)
        seen["empty graph"] += not size
        seen["isolated node"] += any(row == 1 << a for a, row in enumerate(rows))
        seen["facet below rank"] += any(len(f) < rank for f in facets)
        seen["clique above rank"] += max(by_size) > rank

    def test_walk_matches_brute_force_on_random_graphs(self):
        """The walk on random graphs, any rank against any clique sizes,
        matches every clique listed by ``itertools.combinations``.  The
        second batch of graphs is invariant under a random permutation,
        which each carries as its ``rotation``, so that the walk without a
        facet list counts one link per orbit."""
        rng = random.Random(25)
        systems = {r: build_root_system(parse_type(f"A{r}")) for r in range(1, 6)}
        seen = Counter()
        for _ in range(600):
            size, rank, density = rng.randint(0, 11), rng.randint(1, 5), rng.random()
            rows = [1 << a for a in range(size)]
            for a, b in itertools.combinations(range(size), 2):
                if rng.random() < density:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            g = cluster_complex.CompatibilityGraph(systems[rank], 1, "random",
                                                   list(range(size)), rows)
            self.check_against_brute_force(g, seen)
        assert min(seen.values()) > 0, seen
        rng, seen = random.Random(26), Counter()
        for _ in range(60):
            size, rank, density = rng.randint(1, 11), rng.randint(1, 5), rng.random()
            rho = list(range(size))
            rng.shuffle(rho)
            rows = [1 << a for a in range(size)]
            for a, b in itertools.combinations(range(size), 2):
                if rng.random() < density and not rows[a] >> b & 1:
                    while not rows[a] >> b & 1:  # the pair and its images
                        rows[a] |= 1 << b
                        rows[b] |= 1 << a
                        a, b = rho[a], rho[b]
            g = cluster_complex.CompatibilityGraph(systems[rank], 1, "random",
                                                   list(range(size)), rows, tuple(rho))
            orbits = cluster_complex._orbits(g)
            assert sorted(r for r, _ in orbits) == sorted(min(o) for o in _cycles(rho))
            assert sum(count for _, count in orbits) == size
            self.check_against_brute_force(g, seen)
            seen["orbit of one"] += any(count == 1 for _, count in orbits)
            seen["one orbit"] += len(orbits) == 1
        del seen["empty graph"]  # every graph here has a node
        assert min(seen.values()) > 0, seen


def _cycles(rho):
    """The cycles of the permutation ``rho`` of ``range(len(rho))``."""
    cycles, seen = [], set()
    for r in range(len(rho)):
        cycle = []
        while r not in seen:
            seen.add(r)
            cycle.append(r)
            r = rho[r]
        if cycle:
            cycles.append(cycle)
    return cycles


class TestOrbitWalk:
    """``walk_faces`` without a facet list counts one link per orbit of the
    graph's rotation, and gives the full walk's counts."""

    SWEEP = ([(name, keep, 1) for name, keep in ALL_SYSTEMS]
             + [(name, keep, m) for name, keep in [(f"A{r}", None) for r in range(2, 6)]
                + [("D4", None), ("D5", None), ("E6", None)] + REDUCIBLE for m in (2, 3)]
             + [("A1", None, m) for m in range(1, 6)] + [("A2", None, 50)])

    @staticmethod
    def counts(walk):
        return walk.f_vector, walk.facet_sizes, walk.ridges

    @pytest.mark.parametrize("name,keep,m", SWEEP)
    def test_matches_full_walk(self, name, keep, m):
        rs = system(name, keep)
        graphs = [build_graph(rs, m, oracle) for oracle in cluster_complex.ORACLES]
        assert graphs[0].adjacency == graphs[1].adjacency  # one full walk serves both
        full = self.counts(walk_faces(graphs[0], []))
        for g in graphs:
            assert cluster_complex._orbits(g) is not None, g.oracle_tag
            assert self.counts(walk_faces(g)) == full, g.oracle_tag

    @pytest.mark.parametrize("case", ["none", "short", "repeat", "minus one", "transposed",
                                      "flipped pair", "asymmetric orbit"])
    def test_other_rotations_take_the_full_walk(self, a3, case):
        """A rotation that is missing, not a permutation of the ids, holds
        -1, or is no automorphism of the rows, or rows that it keeps but
        that are not symmetric: the walk ignores it."""
        g = corrupt(build_graph(a3, 2), case)
        assert cluster_complex._orbits(g) is None
        assert self.counts(walk_faces(g)) == self.counts(walk_faces(g, []))

    def test_remainder_raises(self, a3, monkeypatch):
        """A count that does not divide by its face size can only come from
        wrong orbits: here a triangle counted through one corner only."""
        g = cluster_complex.CompatibilityGraph(a3, 1, "triangle", [0, 1, 2], [7, 7, 7], (0, 1, 2))
        monkeypatch.setattr(cluster_complex, "_orbits", lambda g: [(0, 1)])
        with pytest.raises(RuntimeError, match="not a multiple of 3"):
            walk_faces(g)


class TestLinkWalk:
    """``verify_vertex_deletions_on_rows`` counts the faces of a graph from
    one walk per vertex deletion's graph, the link of a negative simple,
    and gives the counts of ``walk_faces`` of the graph itself.  Instances
    past 100,000 facets, whose reference walk takes 0.1 s or more, are
    left out."""

    SWEEP = ([(name, keep, m) for name, keep in ALL_SYSTEMS for m in (1, 2, 3)
              if facet_count(system(name, keep), m) <= 100_000]
             + [("A1", None, m) for m in (4, 5)] + [("A2", None, 50), ("A5", None, 10)])

    @pytest.mark.parametrize("name,keep,m", SWEEP)
    def test_matches_walk(self, name, keep, m):
        rs = system(name, keep)
        g = build_graph(rs, m)
        reports, walk = cluster_complex.verify_vertex_deletions_on_rows(
            g, lambda: cluster_complex._invariant(g))
        assert all(report.passed for report in reports) and len(reports) == (rs.n > 1) * rs.n
        if rs.n == 1:  # no deletion: the caller walks the graph
            assert walk is None
        else:
            assert TestOrbitWalk.counts(walk) == TestOrbitWalk.counts(walk_faces(g))

    def test_runs_weight_each_link(self, a2):
        """A2 at m=1 has orbits of 5 nodes that hold both negative simples,
        which weights each link by a run, 2 and 3 nodes long."""
        g = build_graph(a2, 1)
        assert sorted(map(len, rotation_table(a2, 1).runs)) == [2, 3]
        _, walk = cluster_complex.verify_vertex_deletions_on_rows(
            g, lambda: cluster_complex._invariant(g))
        assert (walk.f_vector, walk.facet_sizes, walk.ridges) == ([1, 5, 5], {2: 5}, {2: 5})


class TestComplements:
    def test_a2_m1_two_complements(self, ga2):
        for f in enumerate_facets(ga2):
            for drop in f.indices:
                t = tuple(i for i in f.indices if i != drop)
                assert len(complements(ga2, t)) == 2

    def test_a2_m2_three_complements(self, a2):
        g = build_graph(a2, 2)
        report = verify_complement_counts(g, enumerate_facets(g))
        assert report.passed

    @pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 2), ("D4", 1)])
    def test_ridge_count_is_complement_count(self, name, m):
        rs = build_root_system(parse_type(name))
        g = build_graph(rs, m)
        facets = enumerate_facets(g)
        counts = ridge_counts(facets)
        assert counts
        for t, count in counts.items():
            assert count == len(complements(g, t)) == m + 1
        report = verify_complement_counts(g, facets)
        assert report.passed and report.checked == len(counts)

    @pytest.mark.parametrize("name,keep,m",
                             [(name, None, m) for name, m in
                              [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 2), ("D4", 1)]]
                             + [(name, keep, m) for name, keep in REDUCIBLE for m in (1, 2)])
    def test_walk_matches_references(self, name, keep, m):
        rs = system(name, keep)
        g = build_graph(rs, m)
        facets = []
        walk = walk_faces(g, facets)
        assert facets == sorted(facets)
        assert walk.theorem2(rs.n) and walk.theorem3(m)
        counts = ridge_counts(enumerate_facets(g))
        assert walk.ridges == dict(Counter(counts.values()))
        for ridge, count in counts.items():
            assert count == len(complements(g, ridge))
        # The facets of a join are the products of its components' facets.
        expected = facet_count(rs, m)
        assert walk.facet_sizes == {rs.n: expected}
        if len(g.nodes) <= 20:  # the naive scan visits every subset
            assert walk.facet_sizes == dict(Counter(map(len, naive_maximal_cliques(g.adjacency))))

    def test_missing_facet_reported(self, a3):
        g = build_graph(a3, 2)
        facets = enumerate_facets(g)
        report = verify_complement_counts(g, facets[1:])
        assert not report.passed
        assert report.failures
        dropped = facets[0].indices
        for t, count in report.failures:
            assert count == 2 and set(t) < set(dropped)

    def test_a1_m3_empty_set(self):
        rs = build_root_system(parse_type("A1"))
        g = build_graph(rs, 3)
        assert complements(g, ()) == [0, 1, 2, 3]

    def test_rejects_wrong_size(self, a3):
        g = build_graph(a3, 1)
        with pytest.raises(ValueError):
            complements(g, (0,))

    def test_rejects_incompatible_input(self, a2):
        g = build_graph(a2, 2)
        bad = (g.nodes.index(ColouredRoot((1, 0), 1)),)
        incompatible = bad + (g.nodes.index(ColouredRoot((1, 0), 2)),)
        with pytest.raises(ValueError):
            complements(g, incompatible[:1] + incompatible[1:])


class TestFVector:
    def test_a1_m1(self):
        rs = build_root_system(parse_type("A1"))
        assert f_vector(build_graph(rs, 1)) == [1, 2]

    def test_empty_face_counted(self, ga2):
        assert f_vector(ga2)[0] == 1

    @pytest.mark.parametrize("name,m", [("A2", 1), ("A2", 2), ("A3", 1)])
    def test_top_entry_is_facet_count(self, name, m):
        rs = build_root_system(parse_type(name))
        g = build_graph(rs, m)
        fv = f_vector(g)
        assert len(fv) == rs.n + 1
        assert fv[rs.n] == len(enumerate_facets(g))

    @pytest.mark.parametrize("name,m", [(name, m) for name in ("A2", "A3", "D4")
                                        for m in (1, 2)])
    def test_matches_faces_of_facets(self, name, m):
        rs = build_root_system(parse_type(name))
        g = build_graph(rs, m)
        faces = {face for f in enumerate_facets(g)
                 for k in range(rs.n + 1) for face in itertools.combinations(f.indices, k)}
        expected = [0] * (rs.n + 1)
        for face in faces:
            expected[len(face)] += 1
        assert f_vector(g) == expected

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in (1, 2, 3)])
    def test_h_vector_is_fuss_narayana(self, n, m):
        # h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_(i-1), with f_(i-1) = fv[i]
        # the number of faces with i elements; for A_n the h-vector is the
        # Fuss-Narayana numbers C(n+1,j) C(m(n+1), n-j) / (n+1) with j = n-k.
        fv = f_vector(build_graph(build_root_system(parse_type(f"A{n}")), m))
        h = [sum((-1) ** (k - i) * comb(n - i, k - i) * fv[i] for i in range(k + 1))
             for k in range(n + 1)]
        narayana = [comb(n + 1, j) * comb(m * (n + 1), n - j) // (n + 1)
                    for j in range(n + 1)]
        assert h == narayana[::-1]


class TestParabolicRestriction:
    @pytest.mark.parametrize("m", [1, 2])
    def test_a3_drop_end(self, a3, m):
        report = verify_parabolic_restriction(a3, m, [0, 1])
        assert report.passed and report.checked > 0

    def test_a3_drop_middle(self, a3):
        report = verify_parabolic_restriction(a3, 1, [0, 2])
        assert report.passed

    @pytest.mark.parametrize("oracle", ["combinatorial", "categorical"])
    @pytest.mark.parametrize("name,keep", [("A3", [0, 2]), ("D4", [0, 2, 3])])
    def test_reducible_subsystem(self, name, keep, oracle):
        rs = build_root_system(parse_type(name))
        for m in (1, 2):
            report = verify_parabolic_restriction(rs, m, keep, oracle)
            assert report.passed and report.checked > 0

    def test_identity_keep(self, a3):
        assert verify_parabolic_restriction(a3, 1, range(3)).passed

    def test_reports_disagreement(self, a3, monkeypatch):
        g = build_graph(a3, 1)
        flipped = list(g.adjacency)
        flipped[0] ^= 1 << 1
        flipped[1] ^= 1 << 0
        g.adjacency = flipped
        g_sub = build_graph(parabolic(a3, [0, 1]), 1)
        report = cluster_complex._restriction_report(g, g_sub,
                                                     cluster_complex._lift(g, g_sub, [0, 1]))
        assert not report.passed
        x, y = g.nodes[0], g.nodes[1]
        assert [(f[0], f[1]) for f in report.failures] == [(x, y)]
        [(_, _, full, restricted)] = report.failures
        assert type(full) is bool and type(restricted) is bool and full != restricted

    @pytest.mark.parametrize("name,keep,m",
                             [(name, [v for v in range(int(name[1])) if v != drop], 2)
                              for name in ("A4", "D5", "E6") for drop in range(int(name[1]))]
                             + [(name, list(keep), m) for name, keep in REDUCIBLE for m in (1, 2)])
    def test_lift_is_the_support_scan(self, name, keep, m):
        """The lift of the subsystem's nodes covers exactly the parent
        nodes whose root vanishes off ``keep``, each once: with every
        parent row complemented, every supported pair fails, in the order
        of a brute-force scan of the parent's nodes."""
        rs = system(name)
        g, g_sub = build_graph(rs, m), build_graph(parabolic(rs, keep), m)
        supported = [x for x in g.nodes
                     if all(c == 0 for v, c in enumerate(x.root) if v not in keep)]
        pairs = [(x, y) for a, x in enumerate(supported) for y in supported[a:]]
        everything = (1 << len(g.nodes)) - 1
        g.adjacency = [row ^ everything for row in g.adjacency]
        lift = cluster_complex._lift(g, g_sub, keep)
        report = cluster_complex._restriction_report(g, g_sub, lift)
        assert report.checked == len(pairs) == len(report.failures)
        assert [(x, y) for x, y, _, _ in report.failures] == pairs

    @pytest.mark.parametrize("name,drop,m", [("A4", 1, 2), ("D5", 2, 1), ("E6", 0, 1),
                                             ("A2", 0, 30), ("E7", 2, 1)])
    def test_corrupted_rows_fail_pair_by_pair(self, name, drop, m):
        """Bits flipped at random in either graph or both, one at a time
        and so not symmetrically, most in supported rows, some on the
        diagonal and some off the supported nodes: the failures are those
        of the pair by pair comparison, in its order."""
        rs = system(name)
        keep = [v for v in range(rs.n) if v != drop]
        graphs = build_graph(rs, m), build_graph(parabolic(rs, keep), m)
        supported = cluster_complex._lift(*graphs, keep)
        assert restriction_pairs(*graphs, keep) == (len(supported) * (len(supported) + 1) // 2,
                                                    [])
        rng = random.Random(f"{name} {m}")
        failing = 0
        for _ in range(40):
            corrupted = []
            for h, ids in zip(graphs, zip(*supported)):
                rows = list(h.adjacency)
                for _ in range(rng.choice((0, 1, 2, 5))):
                    a = rng.choice(ids) if rng.random() < 0.8 else rng.randrange(len(rows))
                    rows[a] ^= 1 << rng.choice((a, rng.choice(ids), rng.randrange(len(rows))))
                corrupted.append(copy.copy(h))
                corrupted[-1].adjacency = rows
            checked, failures = restriction_pairs(*corrupted, keep)
            failing += bool(failures)
            report = cluster_complex._restriction_report(*corrupted, supported)
            assert (report.checked, report.failures) == (checked, failures)
            assert report.passed == (not failures)
        assert failing > 10

    @pytest.mark.parametrize("name,m", [("A4", 1), ("D4", 1)])
    def test_single_vertex_deletions(self, name, m):
        rs = build_root_system(parse_type(name))
        for drop in range(rs.n):
            keep = [v for v in range(rs.n) if v != drop]
            assert verify_parabolic_restriction(rs, m, keep).passed


class TestJson:
    def test_schema(self, a2):
        data = complex_to_json(a2, 1, "combinatorial")
        assert data["type"] == "A2" and data["rank"] == 2 and data["m"] == 1
        assert len(data["facets"]) == 5
        assert data["f_vector"] == [1, 5, 5]
        assert data["verification"]["theorem2"] == "pass"
        assert data["verification"]["theorem3"] == "pass"
        assert all(entry["result"] == "pass" for entry in data["verification"]["theorem4"])

    @pytest.mark.parametrize("oracle,expected", [
        ("combinatorial", {"combinatorial"}),
        ("categorical", {"categorical"}),
        ("both", {"combinatorial", "categorical"}),
    ])
    def test_theorem4_runs_under_the_oracle_given(self, a3, oracle, expected, monkeypatch):
        seen = []
        real = cluster_complex._restriction_report
        monkeypatch.setattr(cluster_complex, "_restriction_report",
                            lambda g, g_sub, supported:
                            seen.append((g.oracle_tag, g_sub.oracle_tag))
                            or real(g, g_sub, supported))
        data = complex_to_json(a3, 2, oracle)
        assert {o for o, _ in seen} == expected and len(seen) == a3.n * len(expected)
        assert all(o == o_sub for o, o_sub in seen)
        assert data["oracle"] == oracle
        assert [e["result"] for e in data["verification"]["theorem4"]] == ["pass"] * a3.n

    def test_deterministic(self, a2):
        import json
        one = json.dumps(complex_to_json(a2, 2, "combinatorial"), indent=2)
        two = json.dumps(complex_to_json(a2, 2, "combinatorial"), indent=2)
        assert one == two
