"""Where no second process is made: ``verify``, and the full walk of a
reducible system's graph.  ``os.fork`` and ``os.pipe`` are patched to raise
AssertionError; ``face_walk._fork`` catches only OSError, so any attempt to
make a second process ends the command with an internal error, or raises
from the walk."""

import os

import pytest

from conftest import system
from mclusters import build_graph, cli, cluster_complex, face_walk


def refuse_second_process(monkeypatch):
    """Two CPUs, so that a walk large by its face bound would split, and no
    pipe or fork to be had."""
    def refused(*args):
        raise AssertionError("a second process was asked for")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refused, raising=False)
    monkeypatch.setattr(os, "pipe", refused)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name,m", [("E7", 1), ("E8", 2)])
def test_verify(capsys, monkeypatch, name, m):
    """``verify`` exits 0 with the lines it prints unpatched."""
    argv = ["verify", "--type", name, "--m", str(m)]
    unpatched = run(capsys, *argv)
    assert unpatched[0] == 0 and unpatched[2] == ""
    refuse_second_process(monkeypatch)
    assert run(capsys, *argv) == unpatched


def test_patch_is_seen(capsys, monkeypatch):
    """The patch catches a fork: ``enumerate`` of E7 m=1, whose face bound
    splits its walk, asks for one."""
    refuse_second_process(monkeypatch)
    assert run(capsys, "enumerate", "--type", "E7", "--m", "1") == (
        1, "", "internal error: a second process was asked for\n")


def test_reducible_walk(monkeypatch):
    """A1 x A1 x A1, D4 without its branch vertex, at m=33: 102 nodes and
    39,304 facets, with no face bound, walked with a facet list on this
    process, with the facets and counts of ``_walk``."""
    refuse_second_process(monkeypatch)
    g = build_graph(system("D4", (0, 2, 3)), 33)
    assert len(g.nodes) == 102 and not g.rs.irreducible
    facets = []
    walk = cluster_complex.walk_faces(g, facets)
    neighbours = [row & ~(1 << v) for v, row in enumerate(g.adjacency)]
    expected = []
    whole = face_walk._walk(neighbours, g.rs.n, (1 << len(neighbours)) - 1, expected)
    assert facets == expected and len(facets) == 34 ** 3
    assert (walk.f_vector, walk.facet_sizes, walk.ridges) == (
        whole.f_vector, whole.facet_sizes, whole.ridges)
