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
from conftest import G, in_domain
from mclusters import cli, cluster_complex, derived
from mclusters.cli import main
from mclusters.coloured_roots import ColouredRoot, rotation_table
from mclusters.orbit_category import MClusterCategory
from mclusters.root_system import RootSystem


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
        their evidence, is written whole: it replaces ``--out``."""
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
        assert (code, out, err) == (1, "", "oracle disagreement detected\n")
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
        """From an empty parser memo: the first ``compat`` call builds every
        subparser, in ``COMMANDS`` order, later ``ext``, ``orbit`` and
        ``compat`` calls build none, and ``build_parser()`` builds all of
        them anew."""
        added = []
        real = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            added.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        monkeypatch.setattr(cli, "_parser", functools.lru_cache(maxsize=1)(cli.build_parser))
        assert run(capsys, "compat", "--type", "A2", "--", "-e1", "-e2")[0] == 0
        assert added == list(cli.COMMANDS)
        for argv in (["ext", "--type", "A2", "--", "-e1", "-e2"],
                     ["orbit", "--type", "A2", "--", "-e1"],
                     ["compat", "--type", "A3", "--m", "2", "--", "-e1", "-e2"]):
            assert run(capsys, *argv)[0] == 0
        assert added == list(cli.COMMANDS)
        assert cli._parser.cache_info().currsize == 1
        cli.build_parser()
        assert added == list(cli.COMMANDS) * 2

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
        seen = []
        real = cluster_complex._restriction_report

        def spy(g, g_sub, kept):
            assert g_sub.oracle_tag == g.oracle_tag
            seen.append((tuple(kept), g.oracle_tag))
            report = real(g, g_sub, kept)
            report.passed &= g.oracle_tag != failing
            return report

        monkeypatch.setattr(cluster_complex, "_restriction_report", spy)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "1")
        assert sorted(seen) == sorted((keep, oracle) for keep in [(0, 1), (0, 2), (1, 2)]
                                      for oracle in ("combinatorial", "categorical"))
        line = "parabolic restriction: 40 supported pairs"
        if failing is None:
            assert code == 0 and f"PASS  {line}" in out
        else:
            assert code == 1 and f"FAIL  {line}" in out

    def test_each_subsystem_built_once(self, capsys, monkeypatch):
        built = []
        real = RootSystem.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(RootSystem, "__init__", spy)
        code, out, _ = run(capsys, "verify", "--type", "D4", "--m", "2")
        assert code == 0 and "FAIL" not in out
        assert len(built) == 1 + 4  # D4 and one subsystem per deleted vertex

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

    def test_table_makes_no_hom_call(self, capsys, monkeypatch):
        def refuse(self, x, y):
            raise AssertionError("DerivedCategory.hom called")

        monkeypatch.setattr(derived.DerivedCategory, "hom", refuse)
        code, out, _ = run(capsys, "verify", "--type", "A4", "--m", "2")
        assert code == 0 and "FAIL" not in out

    def test_ext_symmetry_failure(self, capsys, monkeypatch):
        def bump(H, sigma, m, a, c):
            H[a][c] += 1

        tamper_hom(monkeypatch, bump)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert code == 1
        assert "FAIL  Ext dimension symmetry: 450 (pair, degree) instances" in out

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
        # both bumped, so the symmetry holds and the degrees do not.
        def bump_pair(H, sigma, m, a, c):
            b = sigma.index(c)
            H[a][c] += 1
            H[b][sigma[a]] += 1

        tamper_hom(monkeypatch, bump_pair)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "1")
        assert code == 1
        assert "PASS  Ext dimension symmetry: 81 (pair, degree) instances" in out
        assert "FAIL  Ext^1 = compatibility degree: 81 ordered pairs" in out

    def test_rotation_failure(self, capsys, monkeypatch):
        # sigma with its first two entries swapped: the Ext reads go wrong
        # too, and every check still prints its line.
        real = MClusterCategory.shift_permutation
        monkeypatch.setattr(MClusterCategory, "shift_permutation",
                            lambda self: (real(self)[1], real(self)[0]) + real(self)[2:])
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert code == 1
        assert "FAIL  rotation matches shift: 15 coloured roots" in out
        assert "  Ext dimension symmetry: 450 (pair, degree) instances" in out

    def test_rotation_failure_perm(self, capsys, monkeypatch):
        # R_m with its first two entries swapped, after the table has read it.
        real = cli.rotation_table

        def swapped(rs, m):
            table = copy.copy(real(rs, m))
            table.perm = (table.perm[1], table.perm[0]) + table.perm[2:]
            return table

        monkeypatch.setattr(cli, "rotation_table", swapped)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert code == 1
        assert "FAIL  rotation matches shift: 15 coloured roots" in out
        assert "FAIL" not in out.replace("FAIL  rotation matches shift", "")

    def test_shift_lands_off_image(self, capsys, monkeypatch):
        # The landing step by G instead of G^-1: some W(x)[1] land outside
        # W's image, get no node id, and every check still prints its line.
        monkeypatch.setattr(MClusterCategory, "_land",
                            lambda self, y: y if in_domain(self, y) else G(self, y))
        code, out, err = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert (code, err) == (1, "")
        assert "FAIL  rotation matches shift: 15 coloured roots" in out
        assert len(out.splitlines()) == 6


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
    on a corrupted combinatorial graph of A3 m=2."""

    @pytest.mark.parametrize("case,theorem2,facets,ridges", [
        ("edge", "PASS", 52, 54), ("split", "FAIL", 49, 52), ("merge", "FAIL", 52, 56)])
    def test_verify_and_enumerate_fail(self, capsys, monkeypatch, case, theorem2,
                                       facets, ridges):
        corrupt_a3_m2(monkeypatch, case)
        code, out, _ = run(capsys, "verify", "--type", "A3", "--m", "2")
        assert code == 1
        assert f"{theorem2}  facet sizes = rank: {facets} facets" in out
        assert f"FAIL  complement count = 3: {ridges} almost-complete sets" in out
        a3 = cli.build_root_system(cli.parse_type("A3"))
        walk = cluster_complex.walk_faces(cli.build_graph(a3, 2))
        assert (max(walk.facet_sizes) > a3.n) == (case == "merge")
        data = cluster_complex.complex_to_json(a3, 2, "combinatorial")
        assert len(data["facets"]) == facets and data["f_vector"][2] == ridges
        assert data["verification"]["theorem2"] == theorem2.lower()
        assert data["verification"]["theorem3"] == "fail"


    @pytest.mark.parametrize("case", ["edge", "split", "merge"])
    def test_single_flips_take_the_full_walk(self, monkeypatch, case):
        corrupt_a3_m2(monkeypatch, case)
        g = cli.build_graph(cli.build_root_system(cli.parse_type("A3")), 2)
        assert g.rotation is not None and cluster_complex._orbits(g) is None

    def test_invariant_corruption_walks_orbits(self, capsys, monkeypatch):
        """One compatible pair of A3 m=2 flipped with every R_m image of it:
        the graph stays invariant, ``verify`` walks one link per orbit, and
        its theorem lines carry the counts of the full walk of that graph."""
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
        assert [(h, o is not None) for h, o in orbits] == [(g, True)]
        full = cluster_complex.walk_faces(g, [])
        assert code == 1
        theorem2 = "PASS" if full.theorem2(3) else "FAIL"
        assert f"{theorem2}  facet sizes = rank: {sum(full.facet_sizes.values())} facets" in out
        assert (f"FAIL  complement count = 3: {sum(full.ridges.values())} almost-complete sets"
                in out)
        assert "FAIL  oracle equivalence" in out


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
