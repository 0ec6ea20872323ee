"""``verify``'s vertex deletions on two processes,
``cluster_complex.verify_vertex_deletions_on_rows`` with a forked child,
against the same checks on one process, and what becomes of the child.
The split is forced (``always_split``) or refused by patching
``cluster_complex._can_split``, so that no threshold or CPU count decides
it; ``TestSplitRule`` reads the real rule."""

import errno
import os
import signal
import time

import pytest

import test_cli as cli_tests
import test_face_walk as walk_tests
from conftest import ALL_SYSTEMS, corrupt, system
from mclusters import cli, cluster_complex

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")

DELETIONS = cluster_complex.verify_vertex_deletions_on_rows


@pytest.fixture
def always_split(monkeypatch):
    monkeypatch.setattr(cluster_complex, "_can_split", lambda *size: True)


def counted_forks(monkeypatch):
    """The number of ``os.fork`` calls of this process, in a list that
    grows by one per call."""
    forks, real = [], os.fork
    parent = os.getpid()

    def fork():
        if os.getpid() == parent:
            forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def outcome(reports, walk):
    """What the deletions give: each report's count, failures and premise,
    and the walk's counts."""
    return ([(r.checked, r.failures, r.premise, r.passed) for r in reports],
            walk and (walk.f_vector, walk.facet_sizes, walk.ridges))


def deletions(monkeypatch, g, split):
    """``verify_vertex_deletions_on_rows`` of ``g``, on two processes or
    one, as ``outcome``, and the number of calls of its ``invariant``."""
    monkeypatch.setattr(cluster_complex, "_can_split", lambda *size: split)
    calls = []

    def invariant():
        calls.append(1)
        return cluster_complex._invariant(g)

    return outcome(*DELETIONS(g, invariant)), len(calls)


def verify(capsys, monkeypatch, split, name, m):
    """``mcluster verify`` on two processes or one: exit code, stdout and
    stderr, with the ``outcome`` of its deletions and the number of forks
    of this process."""
    monkeypatch.setattr(cluster_complex, "_can_split", lambda *size: split)
    seen = []

    def spy(g, invariant):
        reports, walk = DELETIONS(g, invariant)
        seen.append(outcome(reports, walk))
        return reports, walk

    monkeypatch.setattr(cli, "verify_vertex_deletions_on_rows", spy)
    forks = counted_forks(monkeypatch)
    code = cli.main(["verify", "--type", name, "--m", str(m)])
    out, err = capsys.readouterr()
    monkeypatch.undo()
    walk_tests.no_child_left()
    return (code, out, err, seen), len(forks)


def admitted(name, m):
    try:
        cli._bound_work(system(name), m)
    except cli.UsageError:
        return False
    return True


def same_run(capsys, monkeypatch, name, m):
    """``verify`` split, then on one process (so that the child does not
    inherit the other run's memos): the same result.  Returns it."""
    split, forks = verify(capsys, monkeypatch, True, name, m)
    alone, no_forks = verify(capsys, monkeypatch, False, name, m)
    assert split == alone
    assert (forks, no_forks) == (system(name).n > 1, 0)
    return alone


class TestSameResult:
    """Every instance that ``verify`` admits, and the reducible subsystems
    of ``ALL_SYSTEMS``, give the reports, premises, failures and counts of
    one process, and ``verify`` its lines and exit code."""

    @pytest.mark.parametrize("name,m", [(name, m) for name, keep in ALL_SYSTEMS for m in (1, 2, 3)
                                        if keep is None and admitted(name, m)])
    def test_verify(self, capsys, monkeypatch, name, m):
        code, out, err, _ = same_run(capsys, monkeypatch, name, m)
        assert (code, err) == (0, "") and "FAIL" not in out

    @pytest.mark.parametrize("name,keep,m", [(name, keep, m) for name, keep in ALL_SYSTEMS
                                             if keep is not None for m in (1, 2, 3)])
    def test_reducible(self, monkeypatch, name, keep, m):
        g = cluster_complex.build_graph(system(name, keep), m)
        split = deletions(monkeypatch, g, True)
        assert split == deletions(monkeypatch, g, False)
        assert split[1] == 1 and split[0][1] is not None
        walk_tests.no_child_left()


class TestCorrupted:
    """The corruptions of ``test_cli.TestRowPremises`` and of
    ``conftest.corrupt``, split and on one process: the same lines, exit
    code and reports, failures included."""

    @pytest.mark.parametrize("case,choose,out,err", cli_tests.ROW_CORRUPTIONS)
    def test_row_corruptions(self, capsys, monkeypatch, case, choose, out, err):
        def corrupted(capsys, monkeypatch, split):
            cli_tests.flip_bits(monkeypatch, choose)
            return verify(capsys, monkeypatch, split, "A3", 2)[0]

        result = corrupted(capsys, monkeypatch, True)
        assert result == corrupted(capsys, monkeypatch, False)
        assert result[:3] == (1, out, err)
        assert any(failures for _, failures, *_ in result[3][0][0])

    @pytest.mark.parametrize("name,m,edit", [
        ("A3", 2, lambda H, sigma, m, a, c: H[a].__setitem__(c, H[a][c] + 1)),
        ("D4", 1, cli_tests.bump_closure)], ids=["hom entry", "Ext^1 off degree"])
    def test_hom_tampered(self, capsys, monkeypatch, name, m, edit):
        def tampered(split):
            cli_tests.tamper_hom(monkeypatch, edit)
            return verify(capsys, monkeypatch, split, name, m)[0]

        result = tampered(True)
        assert result == tampered(False) and result[0] == 1

    @pytest.mark.parametrize("name,m", [("A2", 30), ("D4", 1), ("E6", 1), ("A4", 2)])
    def test_stubbed_duality(self, capsys, monkeypatch, name, m):
        def stubbed(split):
            monkeypatch.setattr(cluster_complex.MClusterCategory, "shift_invariant",
                                lambda self: False)
            return verify(capsys, monkeypatch, split, name, m)[0]

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

        def run(split):
            monkeypatch.setattr(cluster_complex.MClusterCategory, "hom_entries", tampered)
            return verify(capsys, monkeypatch, split, "A3", 2)[0]

        result = run(True)
        assert result == run(False) and result[0] == 1
        assert [report[2] for report in result[3][0][0]] == [None, cluster_complex.DUALITY, None]

    def test_rotation_swapped(self, capsys, monkeypatch):
        def run(split):
            real = cluster_complex.MClusterCategory.shift_permutation
            monkeypatch.setattr(cluster_complex.MClusterCategory, "shift_permutation",
                                lambda self: (real(self)[1], real(self)[0]) + real(self)[2:])
            return verify(capsys, monkeypatch, split, "A3", 2)[0]

        result = run(True)
        assert result == run(False)
        assert result[:3] == (1, cli_tests.A3_M2_SHIFT, "")

    @pytest.mark.parametrize("case", ["none", "short", "repeat", "minus one", "transposed",
                                      "flipped pair", "asymmetric orbit"])
    @pytest.mark.parametrize("name,m", [("A3", 2), ("E6", 1)])
    def test_corrupt(self, capsys, monkeypatch, case, name, m):
        def run(split):
            real = cli.build_graph

            def corrupted(rs, m, oracle="combinatorial"):
                return corrupt(real(rs, m, oracle), case)

            monkeypatch.setattr(cli, "build_graph", corrupted)
            return verify(capsys, monkeypatch, split, name, m)[0]

        result = run(True)
        assert result == run(False) and result[0] == 1


def in_child(monkeypatch, act):
    """Patch ``cluster_complex._deletion`` so that a child of this process
    calls ``act()`` before each deletion."""
    parent, real = os.getpid(), cluster_complex._deletion

    def deletion(*args):
        if os.getpid() != parent:
            act()
        return real(*args)

    monkeypatch.setattr(cluster_complex, "_deletion", deletion)


@pytest.mark.usefixtures("always_split")
class TestFailures:
    """A child that fails, is killed or is abandoned, and a pipe or process
    that cannot be made, each leave ``verify`` with the stdout, stderr and
    exit code of one process, and no child behind."""

    ARGV = ["verify", "--type", "E6", "--m", "1"]

    @pytest.fixture
    def alone(self, capsys, monkeypatch):
        """``verify`` of E6 m=1 on one process."""
        with monkeypatch.context() as patch:
            patch.setattr(cluster_complex, "_can_split", lambda *size: False)
            code = cli.main(self.ARGV)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and "FAIL" not in out
        return code, out, err

    def split(self, capsys):
        started = time.monotonic()
        code = cli.main(self.ARGV)
        out, err = capsys.readouterr()
        assert time.monotonic() - started < 30
        walk_tests.no_child_left()
        return code, out, err

    def test_child_raises(self, capsys, monkeypatch, alone):
        in_child(monkeypatch, lambda: 1 / 0)
        assert self.split(capsys) == alone

    def test_child_killed(self, capsys, monkeypatch, alone):
        in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert self.split(capsys) == alone

    def test_child_cut_short(self, capsys, monkeypatch, alone):
        """The child writes half of its output and exits with status 0."""
        def cut(pipe, g, tasks):
            data = cluster_complex.marshal.dumps([None] * len(tasks))
            pipe.write(data[:len(data) // 2])

        monkeypatch.setattr(cluster_complex, "_send", cut)
        assert self.split(capsys) == alone

    def test_premises_raise_here(self, capsys, monkeypatch):
        """The system's premises raise here while the child sleeps: the
        child is killed, not waited for, and the deletions are not
        checked again."""
        in_child(monkeypatch, lambda: time.sleep(60))

        def refuse(g):
            raise KeyError("the system's premises")

        with monkeypatch.context() as patch:
            patch.setattr(cluster_complex, "_can_split", lambda *size: False)
            patch.setattr(cli, "failed_premises", refuse)
            alone = cli.main(self.ARGV), *capsys.readouterr()
        assert alone == (1, "", "internal error: \"the system's premises\"\n")
        monkeypatch.setattr(cli, "failed_premises", refuse)
        assert self.split(capsys) == alone

    def test_first_exception_of_one_process(self, capsys, monkeypatch):
        """Every deletion but the first raises, naming its vertex, on either
        process: the exception raised is that of vertex 2, the first on one
        process, whichever process meets its own first."""
        real = cluster_complex._deletion

        def deletion(g, keep, sub, run, walk):
            drop = next(v for v in range(g.rs.n) if v not in keep)
            if drop:
                raise ValueError(f"deletion of vertex {drop + 1}")
            return real(g, keep, sub, run, walk)

        monkeypatch.setattr(cluster_complex, "_deletion", deletion)
        with monkeypatch.context() as patch:
            patch.setattr(cluster_complex, "_can_split", lambda *size: False)
            alone = cli_tests.run(capsys, *self.ARGV)
        assert alone[0] == 1 and alone[2] == "internal error: deletion of vertex 2\n"
        assert alone[1] == "PASS  oracle equivalence: 42 nodes, 903 pairs\n"
        assert self.split(capsys) == alone

    @pytest.mark.parametrize("name,code", [("pipe", errno.EMFILE), ("fork", errno.EAGAIN)],
                             ids=["pipe", "fork"])
    def test_no_second_process(self, capsys, monkeypatch, alone, name, code):
        fds = walk_tests.TestFallBack.fail(name, code, monkeypatch)
        assert self.split(capsys) == alone
        assert len(fds) == (2 if name == "fork" else 0)
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)


class TestSplitRule:
    """On a machine with two CPUs, ``verify`` forks where the walk of its
    graph would (``_can_split`` of its node count and face bound): not on
    A4 m=2 or D4 m=2, where a fork costs more than it saves, and once on
    E7 m=1."""

    @pytest.mark.parametrize("name,m,forks", [("A4", 2, 0), ("D4", 2, 0), ("E7", 1, 1)])
    def test_forks(self, capsys, monkeypatch, name, m, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        counted = counted_forks(monkeypatch)
        assert cli.main(["verify", "--type", name, "--m", str(m)]) == 0
        assert len(counted) == forks
        walk_tests.no_child_left()
