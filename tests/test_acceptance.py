"""Acceptance criteria, one test per criterion, each printing a pass line.

All checks are exact (boolean or integer equality); there are no
tolerances anywhere.
"""

import itertools
import json
import math

import pytest

from conftest import fine_degree, fuss_catalan, naive_maximal_cliques, orbit_sum, reduce_walk
from mclusters import (DerivedObject, build_graph, build_root_system,
                       compatible_combinatorial, coloured_ground_set,
                       derived_category, enumerate_facets, ext1_dim, euler_form,
                       hom_dim, indecomposable_for_root, parse_type, shift,
                       verify_complement_counts, verify_facet_sizes,
                       verify_parabolic_restriction)
from mclusters.cli import main
from mclusters.coloured_roots import compatibility_degree
from mclusters.orbit_category import mcluster_category

INSTANCES = ([("A" + str(r), m) for r in (1, 2, 3, 4) for m in (1, 2, 3)]
             + [("D4", 1), ("D4", 2)])

_cache = {}


def instance(name, m):
    key = (name, m)
    if key not in _cache:
        rs = build_root_system(parse_type(name))
        g = build_graph(rs, m, "combinatorial")
        _cache[key] = (rs, g)
    return _cache[key]


def report(line):
    print(line)


def test_criterion_01_oracle_equivalence():
    total = 0
    for name, m in INSTANCES:
        rs, g = instance(name, m)
        cat = mcluster_category(rs, m)
        ground = coloured_ground_set(rs, m)
        for a, b in itertools.combinations_with_replacement(range(len(ground)), 2):
            assert g.adjacency[a] >> b & 1 == cat.compatible(ground[a], ground[b]), \
                (name, m, ground[a], ground[b])
            total += 1
    report(f"PASS criterion 1: oracle equivalence on {len(INSTANCES)} instances, {total} pairs")


def test_criterion_02_facet_sizes():
    checked = 0
    for name, m in INSTANCES + [("E6", 1)]:
        rs, g = instance(name, m)
        facets = enumerate_facets(g)
        rep = verify_facet_sizes(facets, rs.n)
        assert rep.passed, (name, m, rep.failures)
        checked += rep.checked
    report(f"PASS criterion 2: all {checked} facets have size = rank")


def test_criterion_03_complement_counts():
    checked = 0
    for name, m in INSTANCES:
        rs, g = instance(name, m)
        rep = verify_complement_counts(g, enumerate_facets(g))
        assert rep.passed, (name, m, rep.failures)
        checked += rep.checked
    report(f"PASS criterion 3: m+1 complements for {checked} almost-complete sets")


def test_criterion_04_parabolic_restriction():
    checked = 0
    for name in ("A2", "A3", "A4", "D4"):
        rs = build_root_system(parse_type(name))
        for m in (1, 2):
            for drop in range(rs.n):
                if rs.n == 1:
                    continue
                keep = [v for v in range(rs.n) if v != drop]
                rep = verify_parabolic_restriction(rs, m, keep)
                assert rep.passed, (name, m, drop, rep.failures)
                checked += rep.checked
    report(f"PASS criterion 4: parabolic restriction agreement on {checked} supported pairs")


def test_criterion_05_rotation_is_shift():
    from mclusters.coloured_roots import rotation_R
    checked = 0
    for name, m in INSTANCES:
        rs, _ = instance(name, m)
        d = derived_category(rs)
        cat1 = mcluster_category(rs, 1)
        almost = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        for alpha in almost:
            assert reduce_walk(cat1, shift(d.V(alpha), 1)) == d.V(rotation_R(rs, alpha))
            checked += 1
        cat = mcluster_category(rs, m)
        for x in coloured_ground_set(rs, m):
            assert cat.shift_matches_rotation(x), (name, m, x)
            checked += 1
    report(f"PASS criterion 5: rotation matches shift for {checked} instances")


def test_criterion_06_ext_symmetry():
    checked = 0
    for name, m in [("A2", 1), ("A2", 2), ("A2", 3), ("A3", 1), ("A3", 2), ("D4", 1)]:
        rs, _ = instance(name, m)
        cat = mcluster_category(rs, m)
        objs = cat.objects()
        for X, Y in itertools.product(objs, repeat=2):
            for i in range(1, m + 1):
                assert cat.ext(X, Y, i) == cat.ext(Y, X, m + 1 - i), (name, m, X, Y, i)
                checked += 1
    report(f"PASS criterion 6: Ext^i(X,Y) = Ext^(m+1-i)(Y,X) on {checked} instances")


def test_criterion_07_ext_equals_degree():
    checked = 0
    for name in ("A1", "A2", "A3", "A4", "D4"):
        rs, _ = instance(name, 1)
        d = derived_category(rs)
        cat = mcluster_category(rs, 1)
        almost = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
        degrees = {}
        for beta, alpha in itertools.product(almost, repeat=2):
            value = cat.ext(d.V(beta), d.V(alpha), 1)
            assert value == compatibility_degree(rs, beta, alpha), (name, beta, alpha)
            degrees[(beta, alpha)] = value
            checked += 1
        for beta, alpha in itertools.product(almost, repeat=2):
            assert degrees[(beta, alpha)] == degrees[(alpha, beta)]
    report(f"PASS criterion 7: Ext^1 = compatibility degree, symmetric, {checked} ordered pairs")


def test_criterion_08_facet_counts():
    expected = {("A2", 1): 5, ("A2", 2): 12, ("A3", 1): 14}
    for (name, m), count in expected.items():
        rs, g = instance(name, m)
        facets = [f.indices for f in enumerate_facets(g)]
        assert len(facets) == count, (name, m, len(facets))
        assert facets == naive_maximal_cliques(g.adjacency)
        assert count == fuss_catalan(rs, m)
    report("PASS criterion 8: facet counts 5 / 12 / 14 vs naive and product oracles")


def test_criterion_09_internal_consistency():
    for name in ("A3", "D4"):
        rs, _ = instance(name, 1)
        reps = [indecomposable_for_root(rs, b) for b in rs.positive_roots]
        for M, N in itertools.product(reps, repeat=2):
            assert hom_dim(M, N) - ext1_dim(rs, M, N) == euler_form(rs, M.dims, N.dims)
    rs, _ = instance("A3", 1)
    d = derived_category(rs)
    objs3 = [DerivedObject(b, s) for b in rs.positive_roots for s in (0, 1, 2)]
    for x, y in itertools.product(objs3, repeat=2):
        assert d.hom(x, shift(y, 1)) == d.hom(y, d.tau(x))
    for b in rs.positive_roots:
        for s in (-2, -1, 0, 1, 2):
            x = DerivedObject(b, s)
            assert -x.shift == math.ceil(fine_degree(d, x) / rs.h)
    for name, m in [("A2", 2), ("A3", 2), ("D4", 1)]:
        rs, _ = instance(name, m)
        cat = mcluster_category(rs, m)
        objs = cat.objects()
        for X, Y in itertools.product(objs, repeat=2):
            for i in range(1, m + 1):
                assert cat.ext(X, Y, i) == orbit_sum(cat, X, Y, i)
    report("PASS criterion 9: Euler identity, Serre duality, grading coherence, orbit-sum truncation")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    for path in (one, two):
        assert main(["enumerate", "--type", "A3", "--m", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()
    assert json.loads(one.read_text())["facets"]
    report("PASS criterion 10: byte-identical enumerate output across runs")
