"""Golden output: the full ``mcluster verify`` text and the sha256 of the
``mcluster enumerate`` JSON on a few instances.  A change that is meant to
leave the output alone must leave these values alone; a change that means
to alter the output updates them and says why."""

import hashlib

import pytest

from mclusters.cli import main

VERIFY = {
    ("A4", 2): """\
PASS  oracle equivalence: 24 nodes, 300 pairs
PASS  facet sizes = rank: 273 facets
PASS  complement count = 3: 364 almost-complete sets
PASS  parabolic restriction: 372 supported pairs
PASS  rotation matches shift: 24 coloured roots
PASS  Ext dimension symmetry: 1152 (pair, degree) instances
""",
    ("D4", 2): """\
PASS  oracle equivalence: 28 nodes, 406 pairs
PASS  facet sizes = rank: 336 facets
PASS  complement count = 3: 448 almost-complete sets
PASS  parabolic restriction: 405 supported pairs
PASS  rotation matches shift: 28 coloured roots
PASS  Ext dimension symmetry: 1568 (pair, degree) instances
""",
    ("E6", 1): """\
PASS  oracle equivalence: 42 nodes, 903 pairs
PASS  facet sizes = rank: 833 facets
PASS  complement count = 2: 2499 almost-complete sets
PASS  parabolic restriction: 1210 supported pairs
PASS  rotation matches shift: 42 coloured roots
PASS  Ext dimension symmetry: 1764 (pair, degree) instances
PASS  Ext^1 = compatibility degree: 1764 ordered pairs
""",
    ("E7", 1): """\
PASS  oracle equivalence: 70 nodes, 2485 pairs
PASS  facet sizes = rank: 4160 facets
PASS  complement count = 2: 14560 almost-complete sets
PASS  parabolic restriction: 2904 supported pairs
PASS  rotation matches shift: 70 coloured roots
PASS  Ext dimension symmetry: 4900 (pair, degree) instances
PASS  Ext^1 = compatibility degree: 4900 ordered pairs
""",
}

ENUMERATE_SHA256 = {
    ("A3", 2, "both"): "62561af8ae580eb517250a32091e7a756013d3468aacf02deee01076c3c9bdeb",
    ("D4", 2, "categorical"): "e0a6405a036a2a7fa81ceac753e46f5b53a3a812af974e497c7202b623d6cb89",
    ("E6", 1, "both"): "3b50cf908c5fbc8cf0c3e333c1048f8bd98a96eb22253974788863442d600ffb",
}


@pytest.mark.parametrize("name,m", list(VERIFY))
def test_verify_stdout(capsys, name, m):
    code = main(["verify", "--type", name, "--m", str(m)])
    out = capsys.readouterr().out
    assert code == 0 and out == VERIFY[name, m]


@pytest.mark.parametrize("name,m,oracle", list(ENUMERATE_SHA256))
def test_enumerate_digest(capsys, name, m, oracle):
    code = main(["enumerate", "--type", name, "--m", str(m), "--oracle", oracle])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[name, m, oracle]
