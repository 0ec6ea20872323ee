"""The full face walk on two processes, ``face_walk._split_walk``, against
the walk on one, ``_walk``, and what becomes of its child process.  The
split walk is called directly, with ``_can_split`` patched to allow it
(``always_split``), so that no threshold or CPU count decides whether it
runs; ``_can_split`` is tested on its own."""

import errno
import itertools
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import ALL_SYSTEMS, corrupt, facet_count, system
from mclusters import cli, face_walk
from mclusters import build_graph, build_root_system, complex_to_json, parse_type

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split walk forks")


@pytest.fixture
def always_split(monkeypatch):
    """``_split_walk`` forks whatever the graph's size, CPUs and threads."""
    monkeypatch.setattr(face_walk, "_can_split", lambda size: True)


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


@pytest.mark.usefixtures("always_split")
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


@pytest.mark.usefixtures("always_split")
class TestChild:
    """A child that fails or is killed makes the split walk raise
    RuntimeError, one that this process abandons is killed, and one whose
    parent is killed stops.  The child is reaped on every path, and
    ``facets`` is left as it was."""

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

    ORPHANED = """if True:
        import os, sys, time
        from mclusters import build_graph, build_root_system, face_walk, parse_type
        fork, walk, parent = os.fork, face_walk._walk, os.getpid()

        def announced_fork():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid

        def slow_walk(*args):
            if os.getpid() != parent:
                time.sleep(1)
            return walk(*args)

        os.fork, face_walk._walk, face_walk._can_split = announced_fork, slow_walk, lambda size: True
        g = build_graph(build_root_system(parse_type("E7")), 2)
        face_walk._split_walk([row & ~(1 << v) for v, row in enumerate(g.adjacency)], 7,
                              (1 << len(g.nodes)) - 1)
        sys.exit("the walk finished")
    """

    def test_child_stops_once_orphaned(self):
        """A process running a split walk of E7 m=2 is SIGKILLed mid-walk,
        while its child sleeps 1 s before each of its 66 first nodes.  The
        child shares the process's stdout, so that pipe ends once the child
        has exited too: within 10 s, where walking on would take a minute."""
        src = os.path.dirname(os.path.dirname(face_walk.__file__))
        proc = subprocess.Popen([sys.executable, "-c", self.ORPHANED], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=src))
        child, gone = None, False
        try:
            assert select.select([proc.stdout], [], [], 60)[0], "no child started in 60 s"
            child = int(proc.stdout.readline())
            time.sleep(0.5)
            proc.kill()
            assert proc.wait(timeout=10) == -signal.SIGKILL
            deadline = time.monotonic() + 10
            while not gone and select.select([proc.stdout], [], [],
                                             max(0.0, deadline - time.monotonic()))[0]:
                gone = not os.read(proc.stdout.fileno(), 4096)
            assert gone, "the orphaned child is still running after 10 s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if child is not None and not gone:
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.stdout.close()

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

    def test_parent_raises_after_receiving(self, a3, monkeypatch):
        real = face_walk._receive

        def receive(pipe, facets, size):
            before = len(facets)
            real(pipe, facets, size)
            assert len(facets) > before  # the child's facets are in
            raise KeyError("after the child's facets")

        monkeypatch.setattr(face_walk, "_receive", receive)
        self.split(a3, KeyError)

    def test_enumerate_exits_1(self, monkeypatch, capsys, tmp_path):
        """``enumerate`` reports the failed child as an internal error and
        leaves ``--out`` as it was."""
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
    splits, real = [], face_walk._can_split

    def spy(size):
        split = real(size)
        if split:
            splits.append(size)
        return split

    monkeypatch.setattr(face_walk, "_can_split", spy)
    return splits


def test_complex_to_json(monkeypatch):
    """E7 m=2, the ``enumerate`` benchmark's instance, is split whenever
    the machine allows it (here it always does), gives the facets of the
    walk on one process, and leaves no child behind."""
    monkeypatch.setattr(face_walk, "_can_split", lambda size: size >= face_walk.SPLIT_NODES)
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


@pytest.mark.usefixtures("always_split")
class TestFallBack:
    """Where no pipe or process can be made, the split walk walks on this
    process: the facets and counts of ``_walk``, no descriptor left open,
    and ``enumerate`` exits 0 with the output of a split walk."""

    @staticmethod
    def fail(name, code, monkeypatch):
        """Make ``os.<name>`` raise OSError ``code``; returns the descriptors
        of every pipe made."""
        fds, real_pipe = [], os.pipe

        def pipe():
            fds.extend(real_pipe())
            return fds[-2:]

        def refused():
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, name, refused)
        return fds

    @pytest.mark.parametrize("name,code", [("pipe", errno.EMFILE), ("fork", errno.EAGAIN)],
                             ids=["pipe", "fork"])
    def test_walks_here(self, a3, monkeypatch, name, code):
        g = build_graph(a3, 2)
        whole = outcome(face_walk._walk, g.adjacency, a3.n, (1 << len(g.nodes)) - 1)
        fds = self.fail(name, code, monkeypatch)
        assert outcome(face_walk._split_walk, g.adjacency, a3.n, (1 << len(g.nodes)) - 1) == whole
        assert len(fds) == (2 if name == "fork" else 0)
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        no_child_left()

    @pytest.mark.parametrize("name,code", [("pipe", errno.EMFILE), ("fork", errno.EAGAIN)],
                             ids=["pipe", "fork"])
    def test_enumerate_exits_0(self, monkeypatch, capsys, name, code):
        argv = ["enumerate", "--type", "A3", "--m", "2"]
        assert cli.main(argv) == 0
        split = capsys.readouterr()
        self.fail(name, code, monkeypatch)
        assert cli.main(argv) == 0
        assert capsys.readouterr() == split
        no_child_left()


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
