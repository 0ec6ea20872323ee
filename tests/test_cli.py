import argparse
import collections
import copy
import functools
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import mclusters
from conftest import G, ext_instances, in_domain
from mclusters import cli, cluster_complex, derived
from mclusters.cli import main
from mclusters.coloured_roots import ColouredRoot, rotation_table
from mclusters.orbit_category import MClusterCategory
from mclusters.root_system import RootSystem, _orientation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_streamed_json_is_dumps_text(self, capsys, tmp_path):
        # E6 m=1 encodes to more chunks than one write batch holds.
        rs = cli.build_root_system(cli.parse_type("E6"))
        text = json.dumps(cluster_complex.complex_to_json(rs, 1, "combinatorial"), indent=2) + "\n"
        code, out, _ = run(capsys, "enumerate", "--type", "E6", "--m", "1")
        assert code == 0 and out == text
        path = tmp_path / "e6.json"
        code, out, _ = run(capsys, "enumerate", "--type", "E6", "--m", "1", "--out", str(path))
        assert code == 0 and out == "" and path.read_text() == text

    def test_a2_m1_counts(self, capsys, tmp_path):
        out = tmp_path / "a2.json"
        code, _, _ = run(capsys, "enumerate", "--type", "A2", "--m", "1",
                         "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["facets"]) == 5
        assert data["oracle"] == "combinatorial"

    def test_a1_m1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "A1", "--m", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data["facets"]) == 2
        assert all(len(f) == 1 for f in data["facets"])

    def test_both_oracles_agree(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "A3", "--m", "2",
                           "--oracle", "both")
        assert code == 0
        data = json.loads(out)
        assert data["oracles_agree"] is True

    def test_byte_identical_runs(self, capsys, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert run(capsys, "enumerate", "--type", "A3", "--m", "2", "--out", str(one))[0] == 0
        assert run(capsys, "enumerate", "--type", "A3", "--m", "2", "--out", str(two))[0] == 0
        assert one.read_bytes() == two.read_bytes()

    def test_bad_type_exits_2(self, capsys):
        assert run(capsys, "enumerate", "--type", "Z9")[0] == 2

    def test_bad_m_exits_2(self, capsys):
        assert run(capsys, "enumerate", "--type", "A2", "--m", "0")[0] == 2

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])
        assert exc.value.code == 2


class TestCompat:
    def test_degree_line(self, capsys):
        code, out, _ = run(capsys, "compat", "--type", "A2", "--m", "1",
                           "--", "1,1:1", "-e1")
        assert code == 0
        assert "incompatible" in out
        assert "degree: 1" in out

    def test_negative_simples_compatible(self, capsys):
        code, out, _ = run(capsys, "compat", "--type", "A2", "--m", "1",
                           "--", "-e1", "-e2")
        assert code == 0
        assert out.count("compatible") == 2 and "incompatible" not in out

    def test_two_colours_same_root(self, capsys):
        code, out, _ = run(capsys, "compat", "--type", "A2", "--m", "2",
                           "--", "1,0:1", "1,0:2")
        assert code == 0
        assert "incompatible" in out

    def test_negative_simple_with_colour(self, capsys):
        plain = run(capsys, "compat", "--type", "A2", "--", "-e1", "1,1")
        assert plain[0] == 0
        assert run(capsys, "compat", "--type", "A2", "--", "-e1:1", "1,1") == plain
        for text in ("-e1:2", "-1,0:2"):
            code, out, err = run(capsys, "compat", "--type", "A2", "--", text, "1,1")
            assert code == 2 and out == ""
            assert err == "error: negative simple roots have colour 1\n"

    @pytest.mark.parametrize("x,y,line", [
        ("2,4,6,5,4,3,2,3", "-e3", "combinatorial: incompatible  categorical: incompatible  degree: 6"),
        ("0,0,0,0,0,0,0,1", "-e3", "combinatorial: compatible  categorical: compatible  degree: 0")])
    def test_one_reading_per_call(self, capsys, monkeypatch, x, y, line):
        readings = []

        def counted(*args):
            readings.append(args)
            return real(*args)

        real = cli._reading
        monkeypatch.setattr(cli, "_reading", counted)
        code, out, _ = run(capsys, "compat", "--type", "E8", "--m", "1", "--", x, y)
        assert (code, out) == (0, line + "\n")
        assert len(readings) == 1

    def test_parse_failure_exits_2(self, capsys):
        assert run(capsys, "compat", "--type", "A2", "--m", "1", "--", "bogus", "-e1")[0] == 2

    def test_wrong_length_exits_2(self, capsys):
        assert run(capsys, "compat", "--type", "A3", "--m", "1", "--", "1,0", "-e1")[0] == 2

    def test_non_root_exits_2(self, capsys):
        assert run(capsys, "compat", "--type", "A2", "--m", "1", "--", "2,1", "-e1")[0] == 2

    @pytest.mark.parametrize("m", ["1_0", "+2", " 3", "\u0663"])
    def test_m_read_by_parse_int(self, capsys, m):
        """``--m`` is read as the rank and the coefficients are: int() would
        also read these as 10, 2, 3 and 3."""
        with pytest.raises(SystemExit) as exc:
            main(["compat", "--type", "A2", "--m", m, "--", "-e1", "-e2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --m: invalid int value: {m!r}\n")


class TestExtAndOrbit:
    def test_ext_output(self, capsys):
        code, out, _ = run(capsys, "ext", "--type", "A2", "--m", "2",
                           "--", "1,0:1", "1,0:2")
        assert code == 0
        assert "Ext^1" in out and "Ext^2" in out and "= 1" in out

    @pytest.mark.parametrize("command", ["compat", "ext"])
    def test_landing_off_image_raises(self, capsys, monkeypatch, command):
        # The landing step by G instead of G^-1, as in TestVerify: at m=2,
        # V(1,1,0)[1] shifted once is V(1,1,0)[2], off W's image, and its
        # G step is further off, so the query fails instead of answering.
        monkeypatch.setattr(MClusterCategory, "_land",
                            lambda self, y: y if in_domain(self, y) else G(self, y))
        code, out, err = run(capsys, command, "--type", "A3", "--m", "2", "--", "-e1", "1,1,0:2")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: ") and err.endswith("is not in the image of W\n")

    def test_orbit_cycles(self, capsys):
        # Checked by hand: mh + 2 nodes, 5 at m=1 and 8 at m=2.
        assert run(capsys, "orbit", "--type", "A2", "--m", "1", "--", "-e1") == (0, (
            "(-1,0)^1 -> (1,0)^1 -> (0,1)^1 -> (0,-1)^1 -> (1,1)^1 -> (cycle)\n"), "")
        assert run(capsys, "orbit", "--type", "A2", "--m", "2", "--", "1,0:1") == (0, (
            "(1,0)^1 -> (1,0)^2 -> (0,1)^1 -> (0,1)^2 -> (0,-1)^1 -> (1,1)^1 -> (1,1)^2 "
            "-> (-1,0)^1 -> (cycle)\n"), "")

    @pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1), ("E6", 2)])
    def test_orbit_is_rotation_cycle(self, capsys, name, m):
        """``orbit`` prints each node's cycle under the rotation table's
        permutation, in order, starting at that node."""
        table = rotation_table(cli.build_root_system(cli.parse_type(name)), m)
        for k, x in enumerate(table.nodes):
            cycle = [k]
            while table.perm[cycle[-1]] != k:
                cycle.append(table.perm[cycle[-1]])
            arg = ",".join(map(str, x.root)) + f":{x.colour}"
            line = " -> ".join(str(table.nodes[j]) for j in cycle) + " -> (cycle)\n"
            assert run(capsys, "orbit", "--type", name, "--m", str(m), "--", arg) == (0, line, "")

    def test_orbit_past_ground_set_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rotation_Rm",
                            lambda rs, m, x: ColouredRoot(x.root, x.colour + 1))
        code, out, err = run(capsys, "orbit", "--type", "A2", "--m", "1", "--", "-e1")
        assert code == 1 and out == ""
        assert "longer than the ground set" in err


class TestBounds:
    """Inputs past the bounds exit 2 before any root system is built."""

    @pytest.fixture(autouse=True)
    def no_root_system(self, monkeypatch):
        def refuse(t):
            raise AssertionError(f"root system {t} built")

        monkeypatch.setattr(cli, "build_root_system", refuse)

    @pytest.mark.parametrize("command,roots", [("compat", ["-e1", "-e2"]),
                                               ("ext", ["-e1", "-e2"]), ("orbit", ["-e1"])])
    @pytest.mark.parametrize("m", [cli.MAX_M + 1, 100000000])
    def test_huge_m_exits_2(self, capsys, command, roots, m):
        code, _, err = run(capsys, command, "--type", "A2", "--m", str(m), "--", *roots)
        assert code == 2 and f"1..{cli.MAX_M}" in err

    @pytest.mark.parametrize("command", ["verify", "enumerate", "export-zq"])
    def test_huge_rank_exits_2(self, capsys, command):
        code, _, err = run(capsys, command, "--type", f"A{cli.MAX_RANK + 1}")
        assert code == 2 and f"rank {cli.MAX_RANK + 1}" in err


class TestWorkBounds:
    """``verify`` and ``enumerate`` past the facet or the face bound exit 2
    before any graph, category or complex is built, whatever the oracle."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("build_graph", "mcluster_category", "complex_to_json"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--type", "A3", "--m", "91"], "A3 at m=91 has 2059604 facets"),
        (["enumerate", "--type", "A3", "--m", "91", "--oracle", "both"], "2059604 facets"),
        (["verify", "--type", "A32"], "212336130412243110 facets"),
        (["enumerate", "--type", "A32"], "212336130412243110 facets"),
        (["enumerate", "--type", "E8", "--m", "3"], "22309287 facets"),
        (["verify", "--type", "D12", "--m", "1"], "up to 259327119 faces"),
        (["enumerate", "--type", "D12", "--m", "1"], "up to 259327119 faces"),
        (["verify", "--type", "D11", "--m", "1"], "up to 45037202 faces"),
        (["enumerate", "--type", "D11", "--m", "1"], "up to 45037202 faces"),
        (["verify", "--type", "A12", "--m", "1"], "up to 96388554 faces"),
        (["enumerate", "--type", "A12", "--m", "1"], "up to 96388554 faces")])
    def test_past_bound_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("name,m", [("E8", 2), ("A6", 3), ("A2", 29), ("A11", 1),
                                        ("A2", 166), ("A3", 19), ("A1", 499),
                                        ("A1", 1000), ("A2", 1000), ("A3", 90)])
    def test_ladder_within_bounds(self, name, m):
        cli._bound_work(cli.build_root_system(cli.parse_type(name)), m)

    @pytest.mark.parametrize("name,m", [("A4", 2), ("D6", 2), ("A6", 3), ("E6", 2),
                                        ("E7", 1), ("E8", 1), ("E7", 2)])
    def test_face_bound_holds(self, name, m):
        rs = cli.build_root_system(cli.parse_type(name))
        walk = cluster_complex.walk_faces(cluster_complex.build_graph(rs, m, "combinatorial"))
        facets, faces = cli.face_bound(rs, m)
        assert facets == sum(walk.facet_sizes.values())
        assert faces >= sum(walk.f_vector)


class TestBadOut:
    """An ``--out`` path that cannot be opened exits 2 before any graph,
    category or DOT is built."""

    @pytest.mark.parametrize("argv", [["enumerate", "--type", "E6", "--m", "1"],
                                      ["export-zq", "--type", "A3", "--window=-1:1"]])
    def test_missing_directory_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        calls = []
        for module, name in [(cluster_complex, "build_graph"), (cli, "derived_category")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == "" and calls == []
        assert err == f"error: cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("argv", [["enumerate", "--type", "E6", "--m", "1", "--out", ""],
                                      ["export-zq", "--type", "A3", "--out="]])
    def test_empty_path_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        """The empty path is a path that cannot be opened, not stdout."""
        calls = []
        for module, name in [(cluster_complex, "build_graph"), (cli, "derived_category")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and calls == [] and list(tmp_path.iterdir()) == []
        assert err == "error: cannot write : No such file or directory\n"


class TestOutReplaced:
    """``--out`` is replaced once the command has written it all, and only
    then."""

    @pytest.mark.parametrize("command,name", [("enumerate", "complex_to_json"),
                                              ("export-zq", "derived_category")])
    def test_failed_command_keeps_out(self, capsys, monkeypatch, tmp_path, command, name):
        def fail(*args, **kwargs):
            raise RuntimeError("failed")

        monkeypatch.setattr(cli, name, fail)
        path = tmp_path / "x.json"
        path.write_bytes(b"old bytes\n")
        code, out, err = run(capsys, command, "--type", "A2", "--out", str(path))
        assert code == 1 and err == "internal error: failed\n"
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_disagreement_replaces_out(self, capsys, monkeypatch, tmp_path):
        """Oracles that disagree fail the call, but only once the JSON,
        their evidence, is written whole: it replaces ``--out``.  The flip
        is made in each deletion's categorical graph too, so theorem 4
        fails under that oracle."""
        real = cluster_complex.build_graph

        def flipped(rs, m, oracle="combinatorial"):
            g = real(rs, m, oracle)
            if oracle == "categorical":  # one pair flipped, as corrupt_a3_m2 does
                rows = list(g.adjacency)
                rows[0] ^= 1 << 1
                rows[1] ^= 1 << 0
                g.adjacency = rows
            return g

        monkeypatch.setattr(cluster_complex, "build_graph", flipped)
        path = tmp_path / "x.json"
        path.write_bytes(b"old bytes\n")
        code, out, err = run(capsys, "enumerate", "--type", "A2", "--oracle", "both",
                             "--out", str(path))
        assert (code, out, err) == (1, "", "oracle disagreement detected\n"
                                            "verification failed: theorem4\n")
        data = json.loads(path.read_text())
        assert data["oracles_agree"] is False and (data["type"], data["m"]) == ("A2", 1)
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_modes_links_and_devices(self, capsys, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        new, old, link = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "link.json"
        old.write_text("old\n")
        old.chmod(0o640)
        link.symlink_to(old)
        for path in (new, link, os.devnull):
            assert run(capsys, "export-zq", "--type", "A2", "--out", str(path))[0] == 0
        assert new.read_text().startswith("digraph") and old.read_text() == new.read_text()
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640 and link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "new.json", "old.json"]


class TestPerCallWork:
    """A call builds only what its command reads."""

    def test_one_parser_per_process(self, capsys, monkeypatch):
        """From an empty parser memo: well-formed calls build no subparser;
        the first call that ``_read`` refuses builds every subparser, in
        ``COMMANDS`` order, later calls of either kind build none, and
        ``build_parser()`` builds all of them anew."""
        added = []
        real = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            added.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        monkeypatch.setattr(cli, "_parser", functools.lru_cache(maxsize=1)(cli.build_parser))
        for argv in (["compat", "--type", "A2", "--", "-e1", "-e2"],
                     ["ext", "--type", "A2", "--m", "2", "--", "-e1", "-e2"],
                     ["orbit", "--type", "A2", "--", "-e1"]):
            assert run(capsys, *argv)[0] == 0
        assert added == [] and cli._parser.cache_info().currsize == 0
        assert run(capsys, "compat", "--m=2", "--type", "A2", "--", "-e1", "-e2")[0] == 0
        assert added == list(cli.COMMANDS)
        for argv in (["ext", "--type", "A2", "--", "-e1", "-e2"],
                     ["ext", "--m=2", "--type", "A2", "--", "-e1", "-e2"],
                     ["compat", "--type", "A3", "--m", "2", "--", "-e1", "-e2"]):
            assert run(capsys, *argv)[0] == 0
        assert added == list(cli.COMMANDS)
        assert cli._parser.cache_info().currsize == 1
        cli.build_parser()
        assert added == list(cli.COMMANDS) * 2

    def test_command_parser_alone(self, capsys, monkeypatch):
        """A valid ``compat`` or ``ext`` call that ``_read`` reads never
        reaches the full parser's ``parse_known_args``, which ``parse_args``
        calls; a call that ``_read`` refuses does, whether it is valid, as
        ``--m=2`` is, or has an argument left over."""
        monkeypatch.setattr(cli, "_parser", functools.lru_cache(maxsize=1)(cli.build_parser))

        def refuse(*args, **kwargs):
            raise AssertionError("full parser called")

        monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
        for argv in (["compat", "--type", "E8", "--m", "3", "--", "2,4,6,5,4,3,2,3:2", "-e1"],
                     ["ext", "--type", "A2", "--", "-e1", "-e2"]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and out and not err, argv
        for argv in (["compat", "--m=2", "--type", "D4", "--", "1,1,0,0:2", "-e3"],
                     ["ext", "--type", "A2", "--", "-e1", "-e2", "extra"]):
            with pytest.raises(AssertionError, match="full parser called"):
                main(argv)

    def test_one_orientation_for_fifty_calls(self, capsys, monkeypatch):
        """Fifty ``ext`` calls on E6 build the data of its bipartition, the
        projectives and injectives included, at most once: 0 misses of
        ``_orientation`` if a call before them built it, else 1.  Each
        call's category builds none of its own and reads the same tuples."""
        dims = set()
        real = derived.DerivedCategory.__init__

        def spy(self, rs):
            real(self, rs)
            dims.add((id(self.proj_dims), id(self.inj_dims)))

        monkeypatch.setattr(derived.DerivedCategory, "__init__", spy)
        before = _orientation.cache_info()
        simples = [",".join("1" if j == i else "0" for j in range(6)) for i in range(6)]
        for k in range(50):
            x, y = f"-e{1 + k % 6}", f"{simples[k * 5 % 6]}:{1 + k % 2}"
            code, out, err = run(capsys, "ext", "--type", "E6", "--m", "2", "--", x, y)
            assert (code, len(out.splitlines()), err) == (0, 2, "")
        after = _orientation.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits + after.misses - before.hits - before.misses == 50
        assert len(dims) == 1

    # Each command with the arguments it is run with below.
    E8_PAIR = ("--type", "E8", "--m", "3", "--", "2,4,6,5,4,3,2,3:3", "0,1,2,2,1,1,1,1:1")
    CALLS = {
        "compat": E8_PAIR,
        "ext": E8_PAIR,
        "verify": ("--type", "E6", "--m", "2"),
        "enumerate": ("--type", "D5", "--m", "2", "--oracle", "both"),
    }

    @pytest.mark.parametrize("command", list(CALLS))
    def test_fine_table_unbuilt(self, capsys, monkeypatch, command):
        # W's image is decided by shift alone, and no grading is tabled:
        # only export-zq walks the translation-quiver rows.
        def refuse(self, coarse_min, coarse_max):
            raise AssertionError("translation-quiver rows walked")

        monkeypatch.setattr(derived.DerivedCategory, "_zq_rows", refuse)
        code, out, _ = run(capsys, command, *self.CALLS[command])
        assert code == 0 and out and "FAIL" not in out

    @pytest.mark.parametrize("command", ["compat", "ext"])
    def test_no_g_step(self, capsys, monkeypatch, command):
        # Per-pair Ext reads Hom from G^-1 X and X only, and lands Y by
        # G^-1 steps, so it takes no tau^-1 step.
        def refuse(self, x):
            raise AssertionError("DerivedCategory.tau_inverse called")

        monkeypatch.setattr(derived.DerivedCategory, "tau_inverse", refuse)
        code, out, _ = run(capsys, command, *self.CALLS[command])
        assert code == 0 and out


class TestVerify:
    def test_a1_smoke(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A1", "--m", "5")
        assert code == 0
        assert "FAIL" not in out

    def test_a3_m2(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert code == 0
        assert "FAIL" not in out
        assert "oracle equivalence" in out

    def test_d4_m1_includes_degree_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "D4", "--m", "1")
        assert code == 0
        assert "compatibility degree" in out

    @pytest.mark.parametrize("failing", [None, "combinatorial", "categorical"])
    def test_parabolic_restriction_under_both_oracles(self, capsys, monkeypatch, failing):
        """Each oracle's restriction fails in turn.  Only the combinatorial
        restriction is compared, graph against graph; the categorical one
        holds with it exactly when the subsystems' premises hold, so its
        failure is injected at those premises, and the line names the first
        deletion's.  A failing combinatorial restriction also refuses the
        subsystems' walks as links, so the full graph is walked; a failed
        premise does not, since the links are combinatorial facts."""
        seen = []
        real = cluster_complex._restriction_report

        def spy(g, g_sub, supported):
            assert g.oracle_tag == g_sub.oracle_tag == "combinatorial"
            # The kept vertices: the support of the lifted nodes.
            seen.append(tuple(sorted({v for f, _ in supported
                                      for v, c in enumerate(g.nodes[f].root) if c})))
            report = real(g, g_sub, supported)
            if failing == "combinatorial":
                report.failures.append("injected")
            return report

        monkeypatch.setattr(cluster_complex, "_restriction_report", spy)
        if failing == "categorical":
            real_premises = cluster_complex.failed_premises
            monkeypatch.setattr(cluster_complex, "failed_premises", lambda g, *args, **kw: (
                real_premises(g, *args, **kw) + [cluster_complex.DUALITY] * (g.rs.n == 2)))
        walked = spy_walks(monkeypatch)
        refuse_pair_by_pair(monkeypatch)
        code, out, err = run(capsys, "verify", "--type", "A3", "--m", "1")
        assert walked == ([3] if failing == "combinatorial" else [2] * 3)
        assert sorted(seen) == [(0, 1), (0, 2), (1, 2)]
        line = "parabolic restriction: 40 supported pairs"
        assert (code, err) == ((0, "") if failing is None else (1, ""))
        assert {None: f"PASS  {line}\n", "combinatorial": f"FAIL  {line}\n",
                "categorical": f"FAIL  {line} (failed premise: H shift-invariant, "
                               f"deletion of vertex 1)\n"}[failing] in out
        assert out.count("FAIL") == (failing is not None)

    def test_each_subsystem_built_once(self, capsys, monkeypatch):
        """Also when the premises hold on D4 but not on its subsystems, so
        that the parabolic restriction fails on their premise."""
        built = []
        real = RootSystem.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(RootSystem, "__init__", spy)
        real_premises = cluster_complex.failed_premises
        for subsystems_agree in (True, False):
            monkeypatch.setattr(cluster_complex, "failed_premises", lambda g, *args, **kw: (
                real_premises(g, *args, **kw)
                + [cluster_complex.ROWS] * (not subsystems_agree and g.rs.n == 3)))
            built.clear()
            code, out, _ = run(capsys, "verify", "--type", "D4", "--m", "2")
            failing = [line for line in out.splitlines() if line.startswith("FAIL")]
            assert (code, failing) == ((0, []) if subsystems_agree else (1, [
                "FAIL  parabolic restriction: 405 supported pairs "
                "(failed premise: -alpha_i rows, deletion of vertex 1)"]))
            assert len(built) == 1 + 4  # D4 and one subsystem per deleted vertex

    def test_walks_subsystem_graphs_only(self, capsys, monkeypatch):
        """A passing run counts the faces from one walk of each vertex
        deletion's graph, and walks no face of the graph itself."""
        walked = spy_walks(monkeypatch)
        code, out, _ = run(capsys, "verify", "--type", "E7", "--m", "1")
        assert code == 0 and "FAIL" not in out
        assert walked == [6] * 7

    def test_broken_link_walks_the_graph(self, capsys, monkeypatch):
        """The deletion loop reads a row of -alpha_1 that lacks one node
        that the graph of the deletion of vertex 1 lifts to.  The
        restriction reports read that row only at the other negative
        simples, so they pass, and only the link fails its premise: verify
        walks the full graph and prints what it prints when all hold."""
        real = cli.verify_vertex_deletions_on_rows

        def broken(g, invariant):
            neg = len(g.nodes) - g.rs.n
            h = copy.copy(g)
            h.adjacency = list(g.adjacency)
            h.adjacency[neg] ^= 1 << next(b for b in range(neg) if g.adjacency[neg] >> b & 1)
            reports, walk = real(h, invariant)
            assert all(report.passed for report in reports) and walk is None
            return reports, walk

        monkeypatch.setattr(cli, "verify_vertex_deletions_on_rows", broken)
        walked = spy_walks(monkeypatch)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "D4", "--m", "2") == (0, """\
PASS  oracle equivalence: 28 nodes, 406 pairs
PASS  facet sizes = rank: 336 facets
PASS  complement count = 3: 448 almost-complete sets
PASS  parabolic restriction: 405 supported pairs
PASS  rotation matches shift: 28 coloured roots
PASS  Ext dimension symmetry: 1568 (pair, degree) instances
""", "")
        assert walked == [4]

    def test_each_orbit_ext_evaluated_once(self, capsys, monkeypatch):
        # One Hom table and one shift per category, and no per-pair Ext.
        builds, exts = collections.Counter(), []
        for name in ("_build_hom_entries", "_build_shift"):
            def spy(self, real=getattr(MClusterCategory, name), name=name):
                builds[(self, name)] += 1
                return real(self)

            monkeypatch.setattr(MClusterCategory, name, spy)
        monkeypatch.setattr(MClusterCategory, "ext", lambda *args: exts.append(args))
        code, out, _ = run(capsys, "verify", "--type", "A4", "--m", "2")
        assert code == 0 and "FAIL" not in out
        assert set(builds.values()) == {1} and not exts
        # A4 and its four subsystems, each with its table and its shift.
        assert sorted(cat.rs.n for cat, _ in builds) == [3] * 8 + [4] * 2

    def test_each_premise_read_once(self, capsys, monkeypatch):
        """On a passing run each system's H is checked once, and each graph's
        invariance read once, for its premise and its walk together."""
        reads = collections.Counter()
        real_dual, real_invariant = MClusterCategory.shift_invariant, cluster_complex._invariant

        def dual(self):
            reads[("dual", self.rs.n, id(self))] += 1
            return real_dual(self)

        def invariant(g):
            reads[("invariant", g.rs.n, id(g))] += 1
            return real_invariant(g)

        monkeypatch.setattr(MClusterCategory, "shift_invariant", dual)
        monkeypatch.setattr(cluster_complex, "_invariant", invariant)
        code, out, _ = run(capsys, "verify", "--type", "A4", "--m", "2")
        assert code == 0 and "FAIL" not in out
        assert set(reads.values()) == {1}
        assert sorted(key[:2] for key in reads) == [("dual", 3)] * 4 + [("dual", 4)] + [
            ("invariant", 3)] * 4 + [("invariant", 4)]

    def test_table_makes_no_hom_call(self, capsys, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError("DerivedCategory.hom called")

        monkeypatch.setattr(derived.DerivedCategory, "hom", refuse)
        code, out, _ = run(capsys, "verify", "--type", "A4", "--m", "2")
        assert code == 0 and "FAIL" not in out

    def test_ext_symmetry_failure(self, capsys, monkeypatch):
        """One H entry bumped: H is no longer invariant under the shift, so
        every line whose proof reads it fails on that premise, and the
        combinatorial counts pass."""
        def bump(H, sigma, m, a, c):
            H[a][c] += 1

        tamper_hom(monkeypatch, bump)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (1, A3_M2_DUALITY, "")

    def test_ext_symmetry_missing_mirror(self, capsys, monkeypatch):
        # The entry is Ext^1(a, b) at b = sigma^-1(c); its mirror,
        # Ext^m(b, a), is H(b, sigma^m(a)).
        def drop_mirror(H, sigma, m, a, c):
            mirror = a
            for _ in range(m):
                mirror = sigma[mirror]
            del H[sigma.index(c)][mirror]

        tamper_hom(monkeypatch, drop_mirror)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert code == 1
        assert "FAIL  Ext dimension symmetry: 450 (pair, degree) instances" in out

    def test_ext_degree_failure(self, capsys, monkeypatch):
        # At m=1, Ext^1(a, b) = H(a, sigma(b)) and Ext^1(b, a) = H(b, sigma(a)):
        # both bumped, so the symmetry holds pair by pair and the degrees do
        # not.  H is no longer invariant under the shift, and both Ext lines
        # read that premise.
        def bump_pair(H, sigma, m, a, c):
            b = sigma.index(c)
            H[a][c] += 1
            H[b][sigma[a]] += 1

        tamper_hom(monkeypatch, bump_pair)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "1") == (1, """\
FAIL  oracle equivalence: 9 nodes, 45 pairs (failed premise: H shift-invariant)
PASS  facet sizes = rank: 14 facets
PASS  complement count = 2: 21 almost-complete sets
FAIL  parabolic restriction: 40 supported pairs (failed premise: H shift-invariant)
PASS  rotation matches shift: 9 coloured roots
FAIL  Ext dimension symmetry: 81 (pair, degree) instances (failed premise: H shift-invariant)
FAIL  Ext^1 = compatibility degree: 81 ordered pairs (failed premise: H shift-invariant)
""", "")

    def test_rotation_failure(self, capsys, monkeypatch):
        # sigma with its first two entries swapped, in the system and in its
        # subsystems: every line that reads sigma fails on the first premise,
        # and every check still prints its line.
        real = MClusterCategory.shift_permutation
        monkeypatch.setattr(MClusterCategory, "shift_permutation",
                            lambda self: (real(self)[1], real(self)[0]) + real(self)[2:])
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (1, A3_M2_SHIFT, "")

    def test_rotation_failure_perm(self, capsys, monkeypatch):
        # R_m with its first two entries swapped in the memoised table of the
        # system alone, once the system's graph has been built off it: sigma
        # is no longer R_m there, the graph is intact, and the counts, read
        # off the graphs, pass.
        real = cli.build_graph

        def swapped(rs, m, oracle="combinatorial"):
            g = real(rs, m, oracle)
            table = rotation_table(rs, m)
            table.perm = (table.perm[1], table.perm[0]) + table.perm[2:]
            return g

        monkeypatch.setattr(cli, "build_graph", swapped)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (1, A3_M2_SHIFT, "")

    def test_shift_lands_off_image(self, capsys, monkeypatch):
        # Some W(x)[1] land outside W's image, get no node id, and every
        # check still prints its line.
        g_step_for_g_inverse(monkeypatch)
        code, out, err = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert (code, err) == (1, "")
        assert "FAIL  rotation matches shift: 15 coloured roots" in out
        assert len(out.splitlines()) == 6

    def test_shift_off_image_refused(self, capsys, monkeypatch, tmp_path):
        """A shift that sends nodes off W's image is no permutation: the
        categorical rows, the Ext instances and the duality refuse it, and
        ``enumerate`` fails with an internal error before ``--out`` is
        replaced, where it once read such a sigma as an inverse."""
        g_step_for_g_inverse(monkeypatch)
        cat = MClusterCategory(cli.build_root_system(cli.parse_type("A3")), 2)
        assert -1 in cat.shift_permutation()
        for read in (lambda: cat.compatible_rows([0]), lambda: next(ext_instances(cat)),
                     cat.shift_invariant):
            with pytest.raises(ValueError, match="not a permutation"):
                read()
        path = tmp_path / "x.json"
        path.write_bytes(b"old bytes\n")
        code, out, err = run(capsys, "enumerate", "--type", "A3", "--m", "2",
                             "--oracle", "categorical", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "internal error: the shift is not a permutation of the node ids\n"
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def g_step_for_g_inverse(monkeypatch):
    """Patch ``MClusterCategory._image`` so that the step the shift and H
    share is taken by G instead of G^-1."""
    monkeypatch.setattr(MClusterCategory, "_image", lambda self: (
        self.objects(), [G(self, X) for X in self.objects()]))


def spy_walks(monkeypatch):
    """Spy on ``walk_faces``, through ``cli`` and ``cluster_complex``: the
    rank of each graph walked, in order."""
    walked = []
    real = cluster_complex.walk_faces

    def spy(g, facets=None, orbits=None):
        walked.append(g.rs.n)
        return real(g, facets, orbits)

    for module in (cli, cluster_complex):
        monkeypatch.setattr(module, "walk_faces", spy)
    return walked


def refuse_pair_by_pair(monkeypatch):
    """Refuse what would compare the oracles pair by pair: a categorical
    ``build_graph`` (through ``cli`` or ``cluster_complex``) and
    ``DerivedCategory.hom``.  A refusal raises inside the command, which
    ``main`` reports as an internal error on stderr."""
    def refuse(*args):
        raise AssertionError(f"pair by pair call {args[1:]}")

    def refuse_categorical(real):
        def build(rs, m, oracle="combinatorial"):
            if oracle == "categorical":
                refuse(None, rs.n, m, oracle)
            return real(rs, m, oracle)
        return build

    for module in (cli, cluster_complex):
        monkeypatch.setattr(module, "build_graph", refuse_categorical(module.build_graph))
    monkeypatch.setattr(derived.DerivedCategory, "hom", refuse)


def flip_bits(monkeypatch, choose):
    """Patch ``cli.build_graph`` so that the combinatorial graph of A3 m=2
    has bit b of row a flipped for each (a, b) that ``choose(g, neg, b0)``
    returns: neg is -alpha_1, b0 the first other node compatible with it."""
    real = cli.build_graph

    def corrupted(rs, m, oracle="combinatorial"):
        g = real(rs, m, oracle)
        if rs.n != 3 or m != 2 or oracle != "combinatorial":
            return g
        neg = len(g.nodes) - rs.n
        b0 = next(b for b in range(len(g.nodes)) if b != neg and g.adjacency[neg] >> b & 1)
        rows = list(g.adjacency)
        for a, b in choose(g, neg, b0):
            rows[a] ^= 1 << b
        g.adjacency = rows
        return g

    monkeypatch.setattr(cli, "build_graph", corrupted)


def rotation_orbit(g, a, b):
    """The ordered pair (a, b) and its images under ``g.rotation``."""
    pairs = []
    while (a, b) not in pairs:
        pairs.append((a, b))
        a, b = g.rotation[a], g.rotation[b]
    return pairs


def bump_closure(H, sigma, m, a, c):
    """H(a, c) bumped with every image under the shift and under the Serre
    map (a, c) -> (c, sigma^(m+1) a), so that H stays shift-invariant and
    dual, and only the Ext dimensions change."""
    far = list(range(len(sigma)))
    for _ in range(m + 1):
        far = [sigma[x] for x in far]
    todo, done = [(a, c)], set()
    while todo:
        x, y = todo.pop()
        if (x, y) not in done:
            done.add((x, y))
            todo += [(sigma[x], sigma[y]), (y, far[x])]
    for x, y in done:
        H[x][y] += 1


# The lines of A3 m=2 with a corrupted combinatorial graph, given the
# first premise that fails and the counts of the graph's faces: facets,
# then ridges.
A3_M2_FLIPPED = """\
FAIL  oracle equivalence: 15 nodes, 120 pairs (failed premise: {0})
PASS  facet sizes = rank: {1} facets
FAIL  complement count = 3: {2} almost-complete sets
FAIL  parabolic restriction: 93 supported pairs (failed premise: {0})
PASS  rotation matches shift: 15 coloured roots
PASS  Ext dimension symmetry: 450 (pair, degree) instances
"""

A3_M2_SHIFT = """\
FAIL  oracle equivalence: 15 nodes, 120 pairs (failed premise: shift = R_m)
PASS  facet sizes = rank: 55 facets
PASS  complement count = 3: 55 almost-complete sets
FAIL  parabolic restriction: 93 supported pairs (failed premise: shift = R_m)
FAIL  rotation matches shift: 15 coloured roots
FAIL  Ext dimension symmetry: 450 (pair, degree) instances (failed premise: shift = R_m)
"""

A3_M2_DUALITY = """\
FAIL  oracle equivalence: 15 nodes, 120 pairs (failed premise: H shift-invariant)
PASS  facet sizes = rank: 55 facets
PASS  complement count = 3: 55 almost-complete sets
FAIL  parabolic restriction: 93 supported pairs (failed premise: H shift-invariant)
PASS  rotation matches shift: 15 coloured roots
FAIL  Ext dimension symmetry: 450 (pair, degree) instances (failed premise: H shift-invariant)
"""


# The corruptions of the combinatorial graph of A3 m=2 that
# ``TestRowPremises.test_corrupted_graph`` applies with ``flip_bits``, as
# (case, choose, stdout, stderr).
ROW_CORRUPTIONS = [
    # The R_m orbit of a pair through -alpha_1, flipped both ways: the
    # graph stays invariant and symmetric, and its -alpha_1 row is wrong.
    ("row", lambda g, neg, b: [p for a, b in rotation_orbit(g, neg, b)
                               for p in ((a, b), (b, a))],
     A3_M2_FLIPPED.format("-alpha_i rows", 30, 45), ""),
    # One pair through -alpha_1, flipped both ways: not invariant.
    ("boundary pair", lambda g, neg, b: [(neg, b), (b, neg)],
     A3_M2_FLIPPED.format("R_m invariance", 52, 54), ""),
    # One bit of a pair of positive roots: the -alpha_i rows stay right,
    # and the graph is neither symmetric nor invariant.
    ("asymmetric pair", lambda g, neg, b: [next(
        (x, y) for x in range(neg) for y in range(x + 1, neg) if g.adjacency[x] >> y & 1)],
     A3_M2_FLIPPED.format("R_m invariance", 52, 54), ""),
    # The R_m orbit of one bit through -alpha_1: invariant but not
    # symmetric, so its -alpha_1 row is wrong, and the walk goes face by
    # face.
    ("asymmetric orbit", lambda g, neg, b: rotation_orbit(g, neg, b),
     A3_M2_FLIPPED.format("-alpha_i rows", 37, 48), ""),
]


class TestRowPremises:
    """``verify`` compares the oracles on the rows of the negative simples,
    and each check that compares them takes its verdict from the premises
    of its proof.  One corruption per premise, each run's whole output
    pinned: sigma swapped (``SHIFT``) in ``TestVerify.test_rotation_failure``,
    the rest here.  No run, passing or failing, compares the oracles pair
    by pair."""

    @pytest.mark.parametrize("name,m", [("A3", 2), ("D4", 1), ("E6", 2)])
    def test_passing_run_builds_no_categorical_graph(self, capsys, monkeypatch, name, m):
        refuse_pair_by_pair(monkeypatch)
        code, out, err = run(capsys, "verify", "--type", name, "--m", str(m))
        assert code == 0 and "FAIL" not in out and err == ""

    @pytest.mark.parametrize("case,choose,out,err", ROW_CORRUPTIONS)
    def test_corrupted_graph(self, capsys, monkeypatch, case, choose, out, err):
        flip_bits(monkeypatch, choose)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (1, out, err)

    def test_hom_entry(self, capsys, monkeypatch):
        """One H entry bumped: H is no longer invariant under the shift."""
        tamper_hom(monkeypatch, lambda H, sigma, m, a, c: H[a].__setitem__(c, H[a][c] + 1))
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (1, A3_M2_DUALITY, "")

    def test_ext1_off_degree(self, capsys, monkeypatch):
        """H bumped on a whole orbit of the shift and of the Serre map: the
        graphs agree, and only Ext^1 = degree, read on the -alpha_i pairs,
        fails."""
        tamper_hom(monkeypatch, bump_closure)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "D4", "--m", "1") == (1, """\
PASS  oracle equivalence: 16 nodes, 136 pairs
PASS  facet sizes = rank: 50 facets
PASS  complement count = 2: 100 almost-complete sets
PASS  parabolic restriction: 156 supported pairs
PASS  rotation matches shift: 16 coloured roots
PASS  Ext dimension symmetry: 256 (pair, degree) instances
FAIL  Ext^1 = compatibility degree: 256 ordered pairs (failed premise: Ext^1 on -alpha_i pairs)
""", "")

    @pytest.mark.parametrize("name,m", [("A1", 3), ("A2", 30), ("D4", 1), ("E6", 1), ("A4", 2)])
    def test_stubbed_duality_fails(self, capsys, monkeypatch, name, m):
        """``shift_invariant`` stubbed to return False on every system: each
        line whose proof reads it fails and names it, the combinatorial
        lines pass, and nothing crashes.  In rank 1 there is no subsystem
        to restrict to, so the parabolic restriction passes."""
        monkeypatch.setattr(MClusterCategory, "shift_invariant", lambda self: False)
        refuse_pair_by_pair(monkeypatch)
        code, out, err = run(capsys, "verify", "--type", name, "--m", str(m))
        failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
        assert (code, err) == (1, "")
        assert failing == ["FAIL  oracle equivalence"] + ["FAIL  parabolic restriction"] * (
            name != "A1") + ["FAIL  Ext dimension symmetry"] + [
            "FAIL  Ext^1 = compatibility degree"] * (m == 1)
        assert all(line.endswith(" (failed premise: H shift-invariant)")
                   for line in out.splitlines() if line.startswith("FAIL"))

    def test_deletion_premise(self, capsys, monkeypatch):
        """H(a, a) bumped at one node of A1 x A1, the deletion of the middle
        vertex of A3: its H is no longer invariant under its shift, so the
        parabolic restriction fails on that deletion's premise alone.  The
        links are combinatorial facts, so the counts still come from the
        deletions' walks."""
        real = MClusterCategory.hom_entries

        def tampered(self):
            H = real(self)
            if len(self.rs.components) == 2:
                H = [dict(row) for row in H]
                H[0][0] += 1
            return H

        monkeypatch.setattr(MClusterCategory, "hom_entries", tampered)
        walked = spy_walks(monkeypatch)
        refuse_pair_by_pair(monkeypatch)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (1, """\
PASS  oracle equivalence: 15 nodes, 120 pairs
PASS  facet sizes = rank: 55 facets
PASS  complement count = 3: 55 almost-complete sets
FAIL  parabolic restriction: 93 supported pairs (failed premise: H shift-invariant, deletion of vertex 2)
PASS  rotation matches shift: 15 coloured roots
PASS  Ext dimension symmetry: 450 (pair, degree) instances
""", "")
        assert walked == [2] * 3


def tamper_hom(monkeypatch, edit):
    """Patch ``MClusterCategory.hom_entries`` to return a copy of the real
    table with ``edit(H, sigma, m, a, c)`` applied, (a, c) its first stored
    entry off the diagonal (H(a, a) = 1), if it has one.  H(a, c) is
    Ext^1(a, b) at b = sigma^-1(c), and b != a, since W's image is rigid."""
    real = MClusterCategory.hom_entries

    def tampered(self):
        H = [dict(row) for row in real(self)]
        entry = next(((a, c) for a, row in enumerate(H) for c in row if c != a), None)
        if entry is not None:  # A1 + A1, with no Hom off the diagonal, stays as it is
            sigma = self.shift_permutation()
            assert sigma.index(entry[1]) != entry[0]
            edit(H, sigma, self.m, *entry)
        return H

    monkeypatch.setattr(MClusterCategory, "hom_entries", tampered)


def corrupt_a3_m2(monkeypatch, case):
    """Patch ``build_graph`` so that the combinatorial graph of A3 m=2 has
    some pairs flipped, chosen from its first facet F and the m+1
    completions C of the ridge F minus its first node:
    ``"edge"``: the first two nodes of F made incompatible; ``"split"``:
    the second node of F made incompatible with all of C, so that the
    ridge becomes a facet of size 2; ``"merge"``: the first two members
    of C made compatible, so that cliques of size 4 appear.  A single
    compatible pair cannot make a facet smaller: each ridge keeps at
    least m of its completions."""
    real = cluster_complex.build_graph

    def corrupted(rs, m, oracle="combinatorial"):
        g = real(rs, m, oracle)
        if rs.n != 3 or m != 2 or oracle != "combinatorial":
            return g
        first = cluster_complex.enumerate_facets(g)[0].indices
        completions = cluster_complex.complements(g, first[1:])
        flips = {"edge": [first[:2]],
                 "split": [(first[1], x) for x in completions],
                 "merge": [tuple(completions[:2])]}[case]
        rows = list(g.adjacency)
        for a, b in flips:
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
        g.adjacency = rows
        return g

    monkeypatch.setattr(cluster_complex, "build_graph", corrupted)
    monkeypatch.setattr(cli, "build_graph", corrupted)


class TestCorruptedComplex:
    """Theorems 2 and 3 fail, in ``verify`` and in the ``enumerate`` JSON,
    on a corrupted combinatorial graph of A3 m=2.  Each corruption flips
    single pairs, so the graph is no longer invariant under R_m."""

    @pytest.mark.parametrize("case,theorem2,facets,ridges", [
        ("edge", "PASS", 52, 54), ("split", "FAIL", 49, 52), ("merge", "FAIL", 52, 56)])
    def test_verify_and_enumerate_fail(self, capsys, monkeypatch, case, theorem2,
                                       facets, ridges):
        corrupt_a3_m2(monkeypatch, case)
        refuse_pair_by_pair(monkeypatch)
        lines = A3_M2_FLIPPED.format("R_m invariance", facets, ridges)
        assert run(capsys, "verify", "--type", "A3", "--m", "2") == (
            1, lines.replace("PASS  facet sizes", f"{theorem2}  facet sizes"), "")
        a3 = cli.build_root_system(cli.parse_type("A3"))
        walk = cluster_complex.walk_faces(cli.build_graph(a3, 2))
        assert (max(walk.facet_sizes) > a3.n) == (case == "merge")
        data = cluster_complex.complex_to_json(a3, 2, "combinatorial")
        assert len(data["facets"]) == facets and data["f_vector"][2] == ridges
        assert data["verification"]["theorem2"] == theorem2.lower()
        assert data["verification"]["theorem3"] == "fail"


    def test_enumerate_fails_once_written(self, capsys, monkeypatch, tmp_path):
        """A failed theorem fails ``enumerate`` too, once the JSON, the
        evidence, replaces ``--out``; stderr names the failed theorems."""
        corrupt_a3_m2(monkeypatch, "split")
        path = tmp_path / "x.json"
        path.write_bytes(b"old bytes\n")
        code, out, err = run(capsys, "enumerate", "--type", "A3", "--m", "2", "--out", str(path))
        assert (code, out, err) == (1, "", "verification failed: theorem2, theorem3, theorem4\n")
        verification = json.loads(path.read_text())["verification"]
        assert (verification["theorem2"], verification["theorem3"]) == ("fail", "fail")
        assert "fail" in [e["result"] for e in verification["theorem4"]]

    @pytest.mark.parametrize("case", ["edge", "split", "merge"])
    def test_single_flips_take_the_full_walk(self, monkeypatch, case):
        corrupt_a3_m2(monkeypatch, case)
        g = cli.build_graph(cli.build_root_system(cli.parse_type("A3")), 2)
        assert g.rotation is not None and cluster_complex._orbits(g) is None

    def test_invariant_corruption_walks_orbits(self, capsys, monkeypatch):
        """One compatible pair of A3 m=2 flipped with every R_m image of it:
        the graph stays invariant, its -alpha_i rows refuse the deletions'
        graphs as links, ``verify`` walks one link per orbit of the graph,
        and its theorem lines carry the counts of the full walk of that
        graph.  The deletions' graphs have their orbits read too."""
        real = cluster_complex.build_graph
        corrupted_graphs, orbits = [], []

        def corrupted(rs, m, oracle="combinatorial"):
            g = real(rs, m, oracle)
            if rs.n != 3 or m != 2 or oracle != "combinatorial":
                return g
            a, b = next((a, b) for a in range(len(g.nodes)) for b in range(a + 1, len(g.nodes))
                        if g.adjacency[a] >> b & 1)
            pair, flips = frozenset((a, b)), set()
            while pair not in flips:
                flips.add(pair)
                pair = frozenset(g.rotation[v] for v in pair)
            rows = list(g.adjacency)
            for a, b in flips:
                rows[a] ^= 1 << b
                rows[b] ^= 1 << a
            g.adjacency = rows
            corrupted_graphs.append(g)
            return g

        real_orbits = cluster_complex._orbits

        def spy(g):
            orbits.append((g, real_orbits(g)))
            return orbits[-1][1]

        monkeypatch.setattr(cli, "build_graph", corrupted)
        monkeypatch.setattr(cluster_complex, "_orbits", spy)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        [g] = corrupted_graphs
        assert [(h.rs.n, o is not None) for h, o in orbits] == [(2, True)] * 3 + [(3, True)]
        assert orbits[-1][0] is g
        full = cluster_complex.walk_faces(g, [])
        assert code == 1
        theorem2 = "PASS" if full.theorem2(3) else "FAIL"
        assert f"{theorem2}  facet sizes = rank: {sum(full.facet_sizes.values())} facets" in out
        assert (f"FAIL  complement count = 3: {sum(full.ridges.values())} almost-complete sets"
                in out)
        assert ("FAIL  oracle equivalence: 15 nodes, 120 pairs (failed premise: -alpha_i rows)"
                in out)


class TestExportZq:
    def test_a2_window(self, capsys):
        code, out, _ = run(capsys, "export-zq", "--type", "A2", "--window", "0:0")
        assert code == 0
        assert out.startswith("digraph") and out.count("label") == 3

    def test_bad_window_exits_2(self, capsys):
        assert run(capsys, "export-zq", "--type", "A2", "--window", "zzz")[0] == 2

    def test_inverted_window_is_empty(self, capsys):
        assert run(capsys, "export-zq", "--type", "A3", "--window=1:0") == (0, "digraph ZQ {\n}\n", "")

    def test_negative_window_as_in_readme(self, capsys):
        code, out, _ = run(capsys, "export-zq", "--type", "A3", "--window=-1:1")
        assert code == 0
        assert out.count("label") == 3 * 6

    # The bound is on the vertices walked from degree 0, |Phi+| per degree:
    # 528 on A32, so 0:{MAX_ZQ_VERTICES // 528} is one degree too wide.
    @pytest.mark.parametrize("window", ["0:2001", "-2000:1", "1000000000:1000000000",
                                        "-1000:1000", f"0:{cli.MAX_ZQ_VERTICES // 528}"])
    def test_wide_window_exits_2(self, capsys, monkeypatch, window):
        monkeypatch.setattr(cli, "derived_category", None)  # any walk would fail
        code, _, err = run(capsys, "export-zq", "--type", "A32", f"--window={window}")
        assert code == 2 and f"vertices, more than {cli.MAX_ZQ_VERTICES}" in err

    def test_widest_window(self, capsys):
        code, out, _ = run(capsys, "export-zq", "--type", "A1",
                           f"--window=0:{cli.MAX_ZQ_VERTICES - 1}")
        assert code == 0
        assert out.count("label") == cli.MAX_ZQ_VERTICES

    def test_rows_read_from_one_period(self, capsys, monkeypatch):
        # Each row repeats one tau^-1 period by shift: D32's widest window
        # takes no tau step and one tau^-1 step per positive root, |Phi+| =
        # 992 in all.  Each row steps out from p = 0 and shifts a period
        # step once per vertex, plus once past each end: 2 n = 64 beyond the
        # window's 151 * 992 vertices.
        calls = collections.Counter()
        for name in ("tau", "tau_inverse"):
            def spy(self, x, name=name, real=getattr(derived.DerivedCategory, name)):
                calls[name] += 1
                return real(self, x)
            monkeypatch.setattr(derived.DerivedCategory, name, spy)

        def shift_spy(x, k, real=derived.shift):
            calls["shift"] += 1
            return real(x, k)
        monkeypatch.setattr(derived, "shift", shift_spy)
        code, out, _ = run(capsys, "export-zq", "--type", "D32", "--window=-75:75")
        assert code == 0 and out.count("[label=") == 151 * 992
        assert calls["tau"] == 0 and 0 < calls["tau_inverse"] <= 992
        assert calls["shift"] <= 151 * 992 + 2 * 32

    @pytest.mark.parametrize("broken", ["identity", "never back"])
    def test_broken_translate_fails_fast(self, capsys, monkeypatch, broken):
        # A tau^-1 that brings P_i back at shift 0, or never brings its root
        # back, fails within |Phi+| = 6 steps instead of walking on.
        steps = []

        def tau_inverse(self, x):
            steps.append(x)
            if broken == "identity":
                return x
            return derived.DerivedObject(
                next(b for b in self.rs.positive_roots if b not in self.proj_dims), x.shift)

        monkeypatch.setattr(derived.DerivedCategory, "tau_inverse", tau_inverse)
        code, out, err = run(capsys, "export-zq", "--type", "A3", "--window=-1:1")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert 0 < len(steps) <= 6
        steps.clear()
        with pytest.raises(RuntimeError):
            derived.derived_category(
                mclusters.build_root_system(mclusters.parse_type("A3")))._zq_rows(0, 0)
        assert 0 < len(steps) <= 6


class TestClosedStdout:
    """A reader that closes the pipe early is no internal error: the
    command ends quietly with status 1, buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [["enumerate", "--type", "E6", "--m", "2"],
                                      ["orbit", "--type", "E8", "--m", "1000", "--", "-e1"]])
    def test_quiet_exit_1(self, argv, unbuffered):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(mclusters.__file__).parent.parent))
        with subprocess.Popen([sys.executable, "-m", "mclusters.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")
