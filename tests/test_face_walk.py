"""The full face walk on two processes, ``face_walk._split_walk``, against
the walk on one, ``_walk``, and what becomes of its child process.  The
split walk is called directly, so that no threshold or CPU count decides
whether it runs; ``_can_split``, which decides that for ``walk_faces``, is
tested on its own."""

import itertools
import os
import random
import signal
import threading
import time
from collections import Counter

import pytest

from conftest import ALL_SYSTEMS, corrupt, facet_count, system
from mclusters import cli, cluster_complex, face_walk
from mclusters import build_graph, build_root_system, complex_to_json, parse_type

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split walk forks")


def neighbours_of(rows):
    return [row & ~(1 << v) for v, row in enumerate(rows)]


def outcome(walker, rows, rank, top):
    """The facets that ``walker`` appends to a list that holds one item
    already, and its counts."""
    facets = [("before",)]
    walk = walker(neighbours_of(rows), rank, top, facets)
    return facets, walk.f_vector, walk.facet_sizes, walk.ridges


def check_split(rows, rank, top=None):
    """The split walk, with a facet list and without, against the walk on
    one process; then no child is left.  Returns the walk's outcome."""
    top = (1 << len(rows)) - 1 if top is None else top
    whole = outcome(face_walk._walk, rows, rank, top)
    assert outcome(face_walk._split_walk, rows, rank, top) == whole
    counts = face_walk._split_walk(neighbours_of(rows), rank, top)
    assert (counts.f_vector, counts.facet_sizes, counts.ridges) == whole[1:]
    no_child_left()
    return whole


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitWalk:
    """The split walk gives the facets, in order, and the counts of the
    walk on one process.  Instances past 60,000 facets are left out, as
    the walks of all three would take seconds; E7 m=2 is compared in
    ``test_complex_to_json``.  A2 m=90 has 272 nodes, past one byte an id."""

    SWEEP = ([(name, keep, m) for name, keep in ALL_SYSTEMS for m in (1, 2, 3)
              if facet_count(system(name, keep), m) <= 60_000] + [("A2", None, 90)])

    @pytest.mark.parametrize("name,keep,m", SWEEP)
    def test_matches_walk(self, name, keep, m):
        g = build_graph(system(name, keep), m)
        facets = check_split(g.adjacency, g.rs.n)[0]
        assert len(facets) == 1 + facet_count(g.rs, m)

    @pytest.mark.parametrize("case", ["flipped pair", "asymmetric orbit"])
    def test_corrupted_rows(self, a3, case):
        """The corrupted rows of ``TestOrbitWalk``: not invariant under the
        rotation, and not symmetric."""
        g = corrupt(build_graph(a3, 2), case)
        check_split(g.adjacency, a3.n)

    def test_empty_top(self):
        assert check_split([1, 2, 4], 2, 0)[0] == [("before",), ()]

    def test_random_graphs(self):
        """Random graphs of any rank, some not symmetric, on random sets of
        candidates."""
        rng, seen = random.Random(36), Counter()
        for _ in range(100):
            size, rank, density = rng.randint(0, 12), rng.randint(1, 5), rng.random()
            symmetric = rng.random() < 0.7
            rows = [1 << a for a in range(size)]
            for a, b in itertools.combinations(range(size), 2):
                if rng.random() < density:
                    rows[a] |= 1 << b
                    if symmetric or rng.random() < 0.5:
                        rows[b] |= 1 << a
            top = (1 << size) - 1 if rng.random() < 0.5 else rng.getrandbits(size) if size else 0
            facets = check_split(rows, rank, top)[0][1:]
            odd = top & sum(1 << v for v in range(1, size, 2))
            seen[f"rank {min(rank, 3)}"] += 1
            seen["not symmetric"] += not symmetric
            seen["empty top"] += not top
            seen["one share"] += bool(top) and odd in (0, top)
            seen["odd lowest node"] += bool(top & -top & odd) and odd != top
            seen["sizes mixed under a first node"] += any(
                len({len(f) for f in run}) > 1 for _, run in itertools.groupby(facets, key=lambda f: f[:1]))
        assert len(seen) == 8 and min(seen.values()) > 0, seen


def in_child(monkeypatch, act):
    """Patch ``face_walk._walk`` so that a child of this process calls
    ``act()`` before each walk of a first node."""
    parent, real = os.getpid(), face_walk._walk

    def walk(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(face_walk, "_walk", walk)


class TestChild:
    """A child that fails, is killed or is left behind makes the split walk
    raise RuntimeError, and one that this process abandons is killed.  The
    child is reaped on every path, and ``facets`` is left as it was."""

    @staticmethod
    def split(a3, error, match=None):
        g = build_graph(a3, 2)
        facets = [("before",)]
        started = time.monotonic()
        with pytest.raises(error, match=match):
            face_walk._split_walk(neighbours_of(g.adjacency), a3.n, (1 << len(g.nodes)) - 1,
                                  facets)
        assert time.monotonic() - started < 30
        assert facets == [("before",)]
        no_child_left()

    def test_child_raises(self, a3, monkeypatch):
        in_child(monkeypatch, lambda: 1 / 0)
        self.split(a3, RuntimeError, "^the second process of the face walk exited with status 1$")

    def test_child_killed(self, a3, monkeypatch):
        in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        self.split(a3, RuntimeError, "was killed by signal 9$")

    def test_child_stops_once_orphaned(self, a3, monkeypatch):
        """``os.getppid`` names this process at the child's first first node
        and another after it, as once this one is gone.  The child stops
        there: a second walk would kill it."""
        answers = iter([os.getpid()])
        monkeypatch.setattr(os, "getppid", lambda: next(answers, 1))
        walks = []

        def second_walk_kills():
            walks.append(None)
            if len(walks) > 1:
                os.kill(os.getpid(), signal.SIGKILL)

        in_child(monkeypatch, second_walk_kills)
        self.split(a3, RuntimeError, "exited with status 1$")

    def test_parent_raises(self, a3, monkeypatch):
        """This process fails on its first walk while the child sleeps: the
        child is killed, not waited for."""
        parent, real = os.getpid(), face_walk._walk

        def walk(*args):
            if os.getpid() == parent:
                raise KeyError("this process fails")
            time.sleep(60)
            return real(*args)

        monkeypatch.setattr(face_walk, "_walk", walk)
        self.split(a3, KeyError)

    def test_parent_raises_after_splicing(self, a3, monkeypatch):
        real = face_walk._receive

        def receive(*args):
            real(*args)
            assert len(args[2]) > 1  # the child's facets are in
            raise KeyError("after the child's facets")

        monkeypatch.setattr(face_walk, "_receive", receive)
        self.split(a3, KeyError)

    def test_enumerate_exits_1(self, monkeypatch, capsys, tmp_path):
        """``enumerate`` reports the failed child as an internal error and
        leaves ``--out`` as it was."""
        monkeypatch.setattr(cluster_complex, "_can_split", lambda size: True)
        in_child(monkeypatch, lambda: 1 / 0)
        path = tmp_path / "x.json"
        path.write_bytes(b"old bytes\n")
        code = cli.main(["enumerate", "--type", "A3", "--m", "2", "--out", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "internal error: the second process of the face walk exited with status 1\n"
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
        no_child_left()


def spy_splits(monkeypatch):
    """The node count of each graph that ``walk_faces`` splits, in order."""
    splits, real = [], face_walk._split_walk

    def spy(neighbours, *args):
        splits.append(len(neighbours))
        return real(neighbours, *args)

    monkeypatch.setattr(cluster_complex, "_split_walk", spy)
    return splits


def test_complex_to_json(monkeypatch):
    """E7 m=2, the ``enumerate`` benchmark's instance, is split whenever
    the machine allows it (here it always does), gives the facets of the
    walk on one process, and leaves no child behind."""
    monkeypatch.setattr(cluster_complex, "_can_split",
                        lambda size: size >= face_walk.SPLIT_NODES)
    splits = spy_splits(monkeypatch)
    rs = build_root_system(parse_type("E7"))
    data = complex_to_json(rs, 2, "combinatorial", include_verification=False)
    assert splits == [133]
    no_child_left()
    facets = []
    walk = face_walk._walk(neighbours_of(build_graph(rs, 2).adjacency), rs.n, (1 << 133) - 1,
                           facets)
    assert data["facets"] == facets and data["f_vector"] == walk.f_vector


def test_small_graphs_walk_on_one_process(monkeypatch):
    """E7 m=1 has 70 nodes, under ``SPLIT_NODES``."""
    splits = spy_splits(monkeypatch)
    complex_to_json(build_root_system(parse_type("E7")), 1, "combinatorial")
    assert splits == [] and face_walk.SPLIT_NODES > 70


class TestCanSplit:
    BIG = face_walk.SPLIT_NODES

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_big_graph(self):
        assert face_walk._can_split(self.BIG)

    def test_small_graph(self):
        assert not face_walk._can_split(self.BIG - 1)

    def test_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not face_walk._can_split(self.BIG)

    @pytest.mark.parametrize("cpus,split", [(None, False), (1, False), (2, True)])
    def test_cpu_count(self, monkeypatch, cpus, split):
        """Without ``os.sched_getaffinity``, ``os.cpu_count()`` decides."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert face_walk._can_split(self.BIG) == split

    def test_no_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert not face_walk._can_split(self.BIG)

    def test_other_thread(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not face_walk._can_split(self.BIG)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert face_walk._can_split(self.BIG)
