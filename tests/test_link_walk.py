"""The link walk of ``cluster_complex.walk_faces``, which walks a link that
is a join part by part (``face_walk._walk_parts``), against the walk of the
whole link (``face_walk._walk``): on random joins, through ``walk_faces``
on vertex deletions, and through ``verify``, whose lines, exit code,
reports and counts are those of a run with every link walked whole
(``whole_links``)."""

import itertools
import random
from collections import Counter

import pytest

import test_cli as cli_tests
from conftest import ALL_SYSTEMS, corrupt, system
from mclusters import ColouredRoot, build_graph, cli, cluster_complex, face_walk, parabolic

DELETIONS = cluster_complex.verify_vertex_deletions_on_rows


def counts(walk):
    return walk.f_vector, walk.facet_sizes, walk.ridges


def whole_links(monkeypatch):
    """``walk_faces`` counts a graph from its orbits' links without parts,
    and walks every link whole, as ``_walk``."""
    monkeypatch.setattr(cluster_complex, "_walk_parts", lambda neighbours, rank, top, negatives,
                        walk=face_walk._walk: walk(neighbours, rank, top))


def counted_joins(monkeypatch):
    """The ``_join`` calls, as the number of parts of each."""
    joins, real = [], face_walk._join

    def join(walks):
        joins.append(len(walks))
        return real(walks)

    monkeypatch.setattr(face_walk, "_join", join)
    return joins


def negative_ids(g):
    return [v for v, x in enumerate(g.nodes) if g.rs.negative_simple_index(x.root) is not None]


# Small systems whose graphs serve as parts: pure, and each holding its own
# negative simples.
PARTS = [("A1", 1), ("A1", 2), ("A2", 1), ("A2", 2), ("A3", 1)]


def random_part(rng):
    """A part as (rows on ids from 0, its negative simples, its rank, whether
    it is a system's graph): a small system's graph, or a random graph of
    1-6 nodes whose rank is its largest clique, held by random nodes."""
    if rng.random() < 0.4:
        name, m = rng.choice(PARTS)
        g = build_graph(system(name), m)
        return g.adjacency, negative_ids(g), g.rs.n, True
    size = rng.randint(1, 6)
    rows = [1 << a for a in range(size)]
    for a, b in itertools.combinations(range(size), 2):
        if rng.random() < 0.5:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    neighbours = [row & ~(1 << v) for v, row in enumerate(rows)]
    rank = len(face_walk._walk(neighbours, 1, (1 << size) - 1).f_vector) - 1
    return rows, rng.sample(range(size), rank), rank, False


class TestWalkParts:
    CASES = ["pure", "face above its rank", "ranks do not sum", "no negative simple", "rank 1"]

    def test_random_joins(self, monkeypatch):
        """Joins of 2-3 parts, every node of one part compatible with every
        node of the others, walked part by part with the negative simples
        as rank hints, against the walk of the whole: the hints as they
        are, one part's hint one short (a face above its rank, the ranks
        still summing), the link's rank one off, one part with no negative
        simple, and rank 1.  A join of systems' graphs at its rank is read
        from its parts."""
        rng, seen = random.Random(41), Counter()
        joins = counted_joins(monkeypatch)
        for trial in range(300):
            case = self.CASES[trial % len(self.CASES)]
            parts = [random_part(rng) for _ in range(rng.randint(2, 3))]
            rows, negatives, rank, start = [], 0, 0, 0
            for part_rows, part_negatives, part_rank, _ in parts:
                size = len(part_rows)
                outside = ((1 << start) - 1) | ~((1 << (start + size)) - 1)
                rows.extend(row << start | outside for row in part_rows)
                negatives |= sum(1 << (start + v) for v in part_negatives)
                rank += part_rank
                start += size
            rows = [row & ((1 << start) - 1) for row in rows]
            if case == "face above its rank":
                negatives &= negatives - 1  # the lowest negative simple goes
                rank -= 1
            elif case == "ranks do not sum":
                rank += rng.choice([-1, 1]) if rank > 2 else 1
            elif case == "no negative simple":
                rank -= len(parts[0][1])
                negatives &= ~((1 << len(parts[0][0])) - 1)
            elif case == "rank 1":
                rank = 1
            neighbours = [row & ~(1 << v) for v, row in enumerate(rows)]
            top = (1 << start) - 1
            joins.clear()
            parted = counts(face_walk._walk_parts(neighbours, rank, top, negatives))
            assert parted == counts(face_walk._walk(neighbours, rank, top)), (case, rows, rank)
            if case == "pure" and rank >= 2 and all(from_system for *_, from_system in parts):
                assert joins, rows
            if case != "pure":
                assert not joins, (case, rows, rank)
            seen[case, "joined" if joins else "whole"] += 1
        assert seen["pure", "joined"] > 20 and seen["pure", "whole"] > 0, seen
        assert len(seen) == len(self.CASES) + 1, seen

    def test_int_nodes(self, a3, monkeypatch):
        """Nodes that are no coloured roots hold no negative simple: each
        link is walked whole, here the three nodes of a 4-clique's link,
        which are three parts."""
        g = cluster_complex.CompatibilityGraph(a3, 1, "ints", list(range(4)), [15] * 4,
                                               (1, 2, 3, 0))
        joins = counted_joins(monkeypatch)
        assert counts(cluster_complex.walk_faces(g)) == counts(cluster_complex.walk_faces(g, []))
        assert joins == [] and len(face_walk._parts([14, 13, 11, 7], 14)) == 3

    def test_links_of_negative_simples(self, monkeypatch):
        """Each orbit's link is walked at the orbit's first negative
        simple, whose link is a vertex deletion's complex.  A4 m=1 is
        relabelled so that (1,1,1,0)^1, whose link holds its negative
        simples out of step with its parts, is the smallest id of its
        orbit; the orbit's link is still read as the join A1 x A2 (that of
        -alpha_3), with the counts of the full walk."""
        g = build_graph(system("A4"), 1)
        first = g.nodes.index(ColouredRoot((1, 1, 1, 0)))
        order = [first] + [v for v in range(len(g.nodes)) if v != first]
        new = {v: k for k, v in enumerate(order)}
        h = cluster_complex.CompatibilityGraph(
            g.rs, 1, g.oracle_tag, [g.nodes[v] for v in order],
            [sum(1 << new[b] for b in order if g.adjacency[v] >> b & 1) for v in order],
            tuple(new[g.rotation[v]] for v in order))
        joins = counted_joins(monkeypatch)
        assert counts(cluster_complex.walk_faces(h)) == counts(cluster_complex.walk_faces(g, []))
        assert joins == [2]

    def test_rotation_swaps_components(self, monkeypatch):
        """A rotation that swaps the two components of A1 x A1 is an
        automorphism, but its orbits leave each part, so no orbit weight
        counts a part: each is walked whole, with the counts of the full
        walk."""
        g = build_graph(system("A3", (0, 2)), 2)
        joins = counted_joins(monkeypatch)
        part = face_walk._parts([row & ~(1 << v) for v, row in enumerate(g.adjacency)],
                                 (1 << len(g.nodes)) - 1)[0]
        ids = [v for v in range(len(g.nodes)) if part >> v & 1]
        others = [v for v in range(len(g.nodes)) if not part >> v & 1]
        swap = list(range(len(g.nodes)))
        for a, b in zip(ids, others):
            swap[a], swap[b] = b, a
        g.rotation = tuple(swap)
        assert cluster_complex._orbits(g) is not None
        assert counts(cluster_complex.walk_faces(g)) == counts(cluster_complex.walk_faces(g, []))
        assert joins == [2]

    SWEEP = [(name, keep, m) for name, keep in ALL_SYSTEMS if system(name, keep).n <= 6
             for m in (1, 2, 3)]

    @pytest.mark.parametrize("name,keep,m", SWEEP)
    def test_vertex_deletions(self, monkeypatch, name, keep, m):
        """Through ``walk_faces``, on the graph of every single and double
        vertex deletion: the counts of every link walked whole."""
        rs = system(name, keep)
        subsystems = [parabolic(rs, kept) for size in (rs.n - 1, rs.n - 2) if size > 0
                      for kept in itertools.combinations(range(rs.n), size)]
        graphs = [build_graph(sub, m) for sub in subsystems]
        joins = counted_joins(monkeypatch)
        parted = [counts(cluster_complex.walk_faces(g)) for g in graphs]
        assert bool(joins) == (rs.n >= 3)
        whole_links(monkeypatch)
        assert parted == [counts(cluster_complex.walk_faces(g)) for g in graphs]


def outcome(reports, walk):
    """What the deletions give: each report's count, failures and premise,
    and the walk's counts."""
    return ([(r.checked, r.failures, r.premise, r.passed) for r in reports],
            walk and counts(walk))


def deletions(monkeypatch, g, parts):
    """``verify_vertex_deletions_on_rows`` of ``g``, with links walked part
    by part or whole, as ``outcome``."""
    with monkeypatch.context() as patch:
        if not parts:
            whole_links(patch)
        return outcome(*DELETIONS(g, cluster_complex._invariant(g)))


def verify(capsys, monkeypatch, parts, name, m):
    """``mcluster verify``, with links walked part by part or whole: exit
    code, stdout and stderr, with the ``outcome`` of its deletions, and the
    number of joins read."""
    if not parts:
        whole_links(monkeypatch)
    joins = counted_joins(monkeypatch)
    seen = []

    def spy(g, invariant):
        reports, walk = DELETIONS(g, invariant)
        seen.append(outcome(reports, walk))
        return reports, walk

    monkeypatch.setattr(cli, "verify_vertex_deletions_on_rows", spy)
    code = cli.main(["verify", "--type", name, "--m", str(m)])
    out, err = capsys.readouterr()
    monkeypatch.undo()
    return (code, out, err, seen), len(joins)


def admitted(name, m):
    try:
        cli._bound_work(system(name), m)
    except cli.UsageError:
        return False
    return True


def same_run(capsys, monkeypatch, name, m):
    """``verify`` with joins read from their parts, then without: the same
    result, and joins read from rank 3 on.  Returns it."""
    parted, joins = verify(capsys, monkeypatch, True, name, m)
    whole, _ = verify(capsys, monkeypatch, False, name, m)
    assert parted == whole
    assert bool(joins) == (system(name).n >= 3)
    return whole


class TestSameResult:
    """Every instance that ``verify`` admits, and the reducible subsystems
    of ``ALL_SYSTEMS``, give the reports, premises, failures and counts of
    every link walked whole, and ``verify`` its lines and exit code."""

    @pytest.mark.parametrize("name,m", [(name, m) for name, keep in ALL_SYSTEMS for m in (1, 2, 3)
                                        if keep is None and admitted(name, m)])
    def test_verify(self, capsys, monkeypatch, name, m):
        code, out, err, _ = same_run(capsys, monkeypatch, name, m)
        assert (code, err) == (0, "") and "FAIL" not in out

    @pytest.mark.parametrize("name,keep,m", [(name, keep, m) for name, keep in ALL_SYSTEMS
                                             if keep is not None for m in (1, 2, 3)])
    def test_reducible(self, monkeypatch, name, keep, m):
        g = cluster_complex.build_graph(system(name, keep), m)
        parted = deletions(monkeypatch, g, True)
        assert parted == deletions(monkeypatch, g, False)
        assert parted[1] is not None


class TestCorrupted:
    """The corruptions of ``test_cli.TestRowPremises`` and of
    ``conftest.corrupt``, with links walked part by part and whole: the
    same lines, exit code and reports, failures included."""

    @pytest.mark.parametrize("case,choose,out,err", cli_tests.ROW_CORRUPTIONS)
    def test_row_corruptions(self, capsys, monkeypatch, case, choose, out, err):
        def corrupted(capsys, monkeypatch, parts):
            cli_tests.flip_bits(monkeypatch, choose)
            return verify(capsys, monkeypatch, parts, "A3", 2)[0]

        result = corrupted(capsys, monkeypatch, True)
        assert result == corrupted(capsys, monkeypatch, False)
        assert result[:3] == (1, out, err)
        assert any(failures for _, failures, *_ in result[3][0][0])

    @pytest.mark.parametrize("name,m,edit", [
        ("A3", 2, lambda H, sigma, m, a, c: H[a].__setitem__(c, H[a][c] + 1)),
        ("D4", 1, cli_tests.bump_closure)], ids=["hom entry", "Ext^1 off degree"])
    def test_hom_tampered(self, capsys, monkeypatch, name, m, edit):
        def tampered(parts):
            cli_tests.tamper_hom(monkeypatch, edit)
            return verify(capsys, monkeypatch, parts, name, m)[0]

        result = tampered(True)
        assert result == tampered(False) and result[0] == 1

    @pytest.mark.parametrize("name,m", [("A2", 30), ("D4", 1), ("E6", 1), ("A4", 2)])
    def test_stubbed_duality(self, capsys, monkeypatch, name, m):
        def stubbed(parts):
            monkeypatch.setattr(cluster_complex.MClusterCategory, "shift_invariant",
                                lambda self: False)
            return verify(capsys, monkeypatch, parts, name, m)[0]

        result = stubbed(True)
        assert result == stubbed(False) and result[0] == 1
        assert all(report[2] == cluster_complex.DUALITY for report in result[3][0][0])

    def test_deletion_premise(self, capsys, monkeypatch):
        real = cluster_complex.MClusterCategory.hom_entries

        def tampered(self):
            H = real(self)
            if len(self.rs.components) == 2:
                H = [dict(row) for row in H]
                H[0][0] += 1
            return H

        def run(parts):
            monkeypatch.setattr(cluster_complex.MClusterCategory, "hom_entries", tampered)
            return verify(capsys, monkeypatch, parts, "A3", 2)[0]

        result = run(True)
        assert result == run(False) and result[0] == 1
        assert [report[2] for report in result[3][0][0]] == [None, cluster_complex.DUALITY, None]

    def test_rotation_swapped(self, capsys, monkeypatch):
        def run(parts):
            real = cluster_complex.MClusterCategory.shift_permutation
            monkeypatch.setattr(cluster_complex.MClusterCategory, "shift_permutation",
                                lambda self: (real(self)[1], real(self)[0]) + real(self)[2:])
            return verify(capsys, monkeypatch, parts, "A3", 2)[0]

        result = run(True)
        assert result == run(False)
        assert result[:3] == (1, cli_tests.A3_M2_SHIFT, "")

    @pytest.mark.parametrize("case", ["none", "short", "repeat", "minus one", "transposed",
                                      "flipped pair", "asymmetric orbit"])
    @pytest.mark.parametrize("name,m", [("A3", 2), ("E6", 1)])
    def test_corrupt(self, capsys, monkeypatch, case, name, m):
        def run(parts):
            real = cli.build_graph

            def corrupted(rs, m, oracle="combinatorial"):
                return corrupt(real(rs, m, oracle), case)

            monkeypatch.setattr(cli, "build_graph", corrupted)
            return verify(capsys, monkeypatch, parts, name, m)[0]

        result = run(True)
        assert result == run(False) and result[0] == 1


class TestExceptions:
    """An exception in the system's premises or in a deletion ends
    ``verify`` with exit 1 and an internal error."""

    ARGV = ["verify", "--type", "E6", "--m", "1"]

    def test_premises_raise(self, capsys, monkeypatch):
        """The system's premises are read before the first deletion, which
        is then never checked."""
        checked = []
        monkeypatch.setattr(cluster_complex, "_deletion", lambda *args: checked.append(args))

        def refuse(g):
            raise KeyError("the system's premises")

        monkeypatch.setattr(cli, "failed_premises", refuse)
        assert cli_tests.run(capsys, *self.ARGV) == (
            1, "", "internal error: \"the system's premises\"\n")
        assert checked == []

    def test_first_exception(self, capsys, monkeypatch):
        """Every deletion but the first raises, naming its vertex: the
        deletions are checked in order, so the exception is vertex 2's."""
        real = cluster_complex._deletion

        def deletion(g, keep, sub, run, walk):
            drop = next(v for v in range(g.rs.n) if v not in keep)
            if drop:
                raise ValueError(f"deletion of vertex {drop + 1}")
            return real(g, keep, sub, run, walk)

        monkeypatch.setattr(cluster_complex, "_deletion", deletion)
        assert cli_tests.run(capsys, *self.ARGV) == (
            1, "PASS  oracle equivalence: 42 nodes, 903 pairs\n",
            "internal error: deletion of vertex 2\n")
