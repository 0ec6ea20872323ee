"""The full face walk on two processes, ``face_walk._split_walk``, against
the walk on one, ``_walk``, and what becomes of its child process.  The
split walk is called directly, with ``_can_split`` patched to allow it
(``always_split``), so that no threshold or CPU count decides whether it
runs; ``_can_split`` is tested on its own, and so is ``_fork``, the frames
it carries and the ways its child can end (``TestFork``)."""

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
    monkeypatch.setattr(face_walk, "_can_split", lambda bound: True)


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

        os.fork, face_walk._walk = announced_fork, slow_walk
        face_walk._can_split = lambda bound: True
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
        """This process raises on its walk of first node 2, once the
        child's facets of first node 1 were appended after its own of
        node 0."""
        parent, real = os.getpid(), face_walk._walk
        lengths = []

        def walk(neighbours, rank, top, facets=None, first=None):
            if os.getpid() == parent:
                lengths.append(len(facets))
                if first == 1 << 2:
                    raise KeyError("after the child's facets")
            walk = real(neighbours, rank, top, facets, first)
            if os.getpid() == parent:
                lengths.append(len(facets))
            return walk

        monkeypatch.setattr(face_walk, "_walk", walk)
        self.split(a3, KeyError)
        assert len(lengths) == 3 and lengths[0] < lengths[1] < lengths[2]  # the child's are in

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


class TestFork:
    """``_fork`` called directly: what the child sends, ``here`` receives,
    frame by frame, and a child that ends or dies before a frame that
    ``here`` asks for makes it raise RuntimeError.  No child is left."""

    # Every shape of value that the split walk sends (a walk's counts and
    # facets), and others that ``marshal`` takes.
    VALUES = [{0: 1, 7: 72_000, 2 ** 40: 3}, [(0, 1, 2), (3,), (), (300, 70_000)], [], None,
              "Ext^1 on -alpha_i pairs", True, False, ([1, 7, 21], {3: 5}, {2: 9}, None),
              (11, [(0, 5, True, False)], None, True, ([1, 4], {2: 2}, {1: 4})),
              (3, [], "shift = R_m", False, None)]

    @staticmethod
    def fork(child, here):
        try:
            return face_walk._fork(child, here)
        finally:
            no_child_left()

    def test_round_trip(self):
        def child(send):
            for value in self.VALUES:
                send(value)

        received = self.fork(child, lambda receive: [receive() for _ in self.VALUES])
        assert received == self.VALUES
        assert [type(value) for value in received] == [type(value) for value in self.VALUES]
        assert type(received[1][0]) is tuple and type(received[7][0]) is list

    def test_many_frames(self):
        def child(send):
            for k in range(2000):
                send([(k, k + 1)] * (k % 3))

        assert self.fork(child, lambda receive: [receive() for _ in range(2000)]) == [
            [(k, k + 1)] * (k % 3) for k in range(2000)]

    def test_frame_past_the_pipe_buffer(self):
        """About 2.6 MB, 40 times the 64 KiB of a Linux pipe, between two
        small frames."""
        facets = [tuple(range(k % 200, k % 200 + 7)) for k in range(72_000)]

        def child(send):
            send(1)
            send(facets)
            send(2)

        assert self.fork(child, lambda receive: [receive() for _ in range(3)]) == [1, facets, 2]

    @pytest.mark.parametrize("sent", [0, 2])
    def test_ended_early(self, sent):
        """The child returns, with status 0, before a frame that ``here``
        asks for."""
        def child(send):
            for k in range(sent):
                send(k)

        with pytest.raises(RuntimeError, match="^the second process of the face walk ended early$"):
            self.fork(child, lambda receive: [receive() for _ in range(sent + 1)])

    def test_killed_mid_frame(self):
        """The child is killed by SIGALRM 50 ms after it starts, while it
        writes a 1 MB frame, which ``here`` starts to read 0.3 s later: the
        frame is cut short, and the signal is named."""
        def child(send):
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            send(b"x" * 10 ** 6)

        def here(receive):
            time.sleep(0.3)
            return receive()

        with pytest.raises(RuntimeError, match=f"was killed by signal {signal.SIGALRM.value}$"):
            self.fork(child, here)

    def test_child_raises(self):
        def child(send):
            send(1)
            raise ValueError

        with pytest.raises(RuntimeError, match="exited with status 1$"):
            self.fork(child, lambda receive: receive())

    def test_no_pipe(self, monkeypatch):
        """Where no pipe can be made, no child is made, and neither
        ``child`` nor ``here`` runs."""
        TestFallBack.fail("pipe", errno.EMFILE, monkeypatch)
        assert self.fork(lambda send: 1 / 0, lambda receive: 1 / 0) is None


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def spy_splits(monkeypatch):
    """The face bound of each complex whose walk ``walk_faces`` splits, in
    order, on a machine with two CPUs."""
    two_cpus(monkeypatch)
    splits, real = [], face_walk._can_split

    def spy(bound):
        split = real(bound)
        if split:
            splits.append(bound)
        return split

    monkeypatch.setattr(face_walk, "_can_split", spy)
    return splits


def test_complex_to_json(monkeypatch):
    """E7 m=2, the ``enumerate`` benchmark's instance, is split whenever
    the machine allows it, gives the facets of the walk on one process,
    and leaves no child behind."""
    splits = spy_splits(monkeypatch)
    rs = build_root_system(parse_type("E7"))
    data = complex_to_json(rs, 2, "combinatorial", include_verification=False)
    assert splits == [cli.face_bound(rs, 2)]
    no_child_left()
    facets = []
    walk = face_walk._walk(neighbours_of(build_graph(rs, 2).adjacency), rs.n, (1 << 133) - 1,
                           facets)
    assert data["facets"] == facets and data["f_vector"] == walk.f_vector


@pytest.mark.parametrize("name,m,split", [("A2", 40, False), ("A3", 10, False),
                                          ("E6", 1, False), ("E7", 1, True)])
def test_split_by_face_bound(monkeypatch, name, m, split):
    """Whether ``enumerate`` splits its walk follows the face bound, not
    the node count: A2 m=40 has 122 nodes and walks in about 1 ms, E7 m=1
    has 70 and walks in about 20 ms."""
    splits = spy_splits(monkeypatch)
    rs = build_root_system(parse_type(name))
    complex_to_json(rs, m, "combinatorial")
    assert splits == ([cli.face_bound(rs, m)] if split else [])
    no_child_left()


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
    # E7 m=2's face bound, which splits.
    SPLIT = cli.face_bound(build_root_system(parse_type("E7")), 2)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        two_cpus(monkeypatch)

    @pytest.mark.parametrize("name,m,split", [
        ("A2", 40, False), ("A2", 1000, False), ("A3", 90, False), ("A4", 12, False),
        ("E6", 1, False), ("A7", 1, False), ("D7", 1, True), ("E7", 1, True), ("E6", 2, True),
        ("E7", 2, True), ("E8", 1, True), ("A8", 2, True), ("E8", 2, True)])
    def test_face_bound_decides(self, name, m, split):
        """The face bound decides, not the node count: A8 m=2 has 80 nodes,
        A2 m=1000 has 3,002."""
        rs = build_root_system(parse_type(name))
        assert face_walk._can_split(cli.face_bound(rs, m)) == split

    def test_face_bound_threshold(self):
        big = face_walk.SPLIT_FACES
        assert face_walk._can_split((big, 2 * big))
        assert not face_walk._can_split((big, 2 * big - 1))
        assert face_walk._can_split((0, big))
        assert not face_walk._can_split((0, big - 1))

    def test_no_bound(self):
        """A reducible system's complex, which has no face bound, is walked
        on one process whatever its size."""
        assert not face_walk._can_split(None)

    def test_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not face_walk._can_split(self.SPLIT)

    @pytest.mark.parametrize("cpus,split", [(None, False), (1, False), (2, True)])
    def test_cpu_count(self, monkeypatch, cpus, split):
        """Without ``os.sched_getaffinity``, ``os.cpu_count()`` decides."""
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert face_walk._can_split(self.SPLIT) == split

    def test_no_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert not face_walk._can_split(self.SPLIT)

    def test_other_thread(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not face_walk._can_split(self.SPLIT)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert face_walk._can_split(self.SPLIT)
