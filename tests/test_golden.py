"""Golden output: the full ``mcluster verify`` text, the sha256 of the
``mcluster enumerate`` JSON on a few instances, the sha256 of the
exit codes and stdout of a fixed list of ``compat`` and ``ext`` calls,
the sha256 of a few whole Ext tables and of a few ``export-zq`` DOT
texts.  A change that is meant to leave the output alone must leave
these values alone; a change that means to alter the output updates
them and says why."""

import hashlib
import json

import pytest

from conftest import REDUCIBLE, dense_ext, system
from mclusters.cli import main
from mclusters.orbit_category import mcluster_category

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


# ``command type m x y``: for each type and m, the highest root against a
# negative simple and against a root of middle height, a simple root
# against that root, and a pair of negative simples at m=2.
QUERIES = """\
compat A6 1 1,1,1,1,1,1:1 -e1
compat A6 1 0,0,0,0,0,1:1 0,0,0,0,1,1:1
ext A6 1 1,1,1,1,1,1:1 0,0,0,0,1,1:1
ext A6 1 -e6 1,1,1,1,1,1:1
compat A6 2 1,1,1,1,1,1:2 -e1
compat A6 2 0,0,0,0,0,1:1 0,0,0,0,1,1:2
ext A6 2 1,1,1,1,1,1:2 0,0,0,0,1,1:1
ext A6 2 -e6 1,1,1,1,1,1:1
compat A6 2 -e1 -e6
compat A6 3 1,1,1,1,1,1:3 -e1
compat A6 3 0,0,0,0,0,1:1 0,0,0,0,1,1:3
ext A6 3 1,1,1,1,1,1:3 0,0,0,0,1,1:1
ext A6 3 -e6 1,1,1,1,1,1:1
compat D6 1 1,2,2,2,1,1:1 -e1
compat D6 1 0,0,0,0,0,1:1 0,0,0,1,1,1:1
ext D6 1 1,2,2,2,1,1:1 0,0,0,1,1,1:1
ext D6 1 -e6 1,2,2,2,1,1:1
compat D6 2 1,2,2,2,1,1:2 -e1
compat D6 2 0,0,0,0,0,1:1 0,0,0,1,1,1:2
ext D6 2 1,2,2,2,1,1:2 0,0,0,1,1,1:1
ext D6 2 -e6 1,2,2,2,1,1:1
compat D6 2 -e1 -e6
compat D6 3 1,2,2,2,1,1:3 -e1
compat D6 3 0,0,0,0,0,1:1 0,0,0,1,1,1:3
ext D6 3 1,2,2,2,1,1:3 0,0,0,1,1,1:1
ext D6 3 -e6 1,2,2,2,1,1:1
compat E6 1 1,2,3,2,1,2:1 -e1
compat E6 1 0,0,0,0,0,1:1 0,1,1,1,1,0:1
ext E6 1 1,2,3,2,1,2:1 0,1,1,1,1,0:1
ext E6 1 -e6 1,2,3,2,1,2:1
compat E6 2 1,2,3,2,1,2:2 -e1
compat E6 2 0,0,0,0,0,1:1 0,1,1,1,1,0:2
ext E6 2 1,2,3,2,1,2:2 0,1,1,1,1,0:1
ext E6 2 -e6 1,2,3,2,1,2:1
compat E6 2 -e1 -e6
compat E6 3 1,2,3,2,1,2:3 -e1
compat E6 3 0,0,0,0,0,1:1 0,1,1,1,1,0:3
ext E6 3 1,2,3,2,1,2:3 0,1,1,1,1,0:1
ext E6 3 -e6 1,2,3,2,1,2:1
compat E7 1 2,3,4,3,2,1,2:1 -e1
compat E7 1 0,0,0,0,0,0,1:1 1,1,1,1,1,1,0:1
ext E7 1 2,3,4,3,2,1,2:1 1,1,1,1,1,1,0:1
ext E7 1 -e7 2,3,4,3,2,1,2:1
compat E7 2 2,3,4,3,2,1,2:2 -e1
compat E7 2 0,0,0,0,0,0,1:1 1,1,1,1,1,1,0:2
ext E7 2 2,3,4,3,2,1,2:2 1,1,1,1,1,1,0:1
ext E7 2 -e7 2,3,4,3,2,1,2:1
compat E7 2 -e1 -e7
compat E7 3 2,3,4,3,2,1,2:3 -e1
compat E7 3 0,0,0,0,0,0,1:1 1,1,1,1,1,1,0:3
ext E7 3 2,3,4,3,2,1,2:3 1,1,1,1,1,1,0:1
ext E7 3 -e7 2,3,4,3,2,1,2:1
compat E8 1 2,4,6,5,4,3,2,3:1 -e1
compat E8 1 0,0,0,0,0,0,0,1:1 0,1,2,2,1,1,1,1:1
ext E8 1 2,4,6,5,4,3,2,3:1 0,1,2,2,1,1,1,1:1
ext E8 1 -e8 2,4,6,5,4,3,2,3:1
compat E8 2 2,4,6,5,4,3,2,3:2 -e1
compat E8 2 0,0,0,0,0,0,0,1:1 0,1,2,2,1,1,1,1:2
ext E8 2 2,4,6,5,4,3,2,3:2 0,1,2,2,1,1,1,1:1
ext E8 2 -e8 2,4,6,5,4,3,2,3:1
compat E8 2 -e1 -e8
compat E8 3 2,4,6,5,4,3,2,3:3 -e1
compat E8 3 0,0,0,0,0,0,0,1:1 0,1,2,2,1,1,1,1:3
ext E8 3 2,4,6,5,4,3,2,3:3 0,1,2,2,1,1,1,1:1
ext E8 3 -e8 2,4,6,5,4,3,2,3:1
"""

QUERY_SHA256 = {
    "A6": "193542ecb81a2d9e196526bbcbdf23d2b746ee4b560362bbf89bc007ba51c411",
    "D6": "93f719da77bb91570486d33fd60a43802800a400414d97044a4378285df952fd",
    "E6": "f3c6e51d31c3bec0007dcc13786854f3197e503c4240503c065e36a633005111",
    "E7": "b204bde38bcf81b656020e329c7fd8f02c809e0748f0c89a4aaaaffa004f2bbe",
    "E8": "86a8e478202fccc5e19015e58815aa4c2d835588573f8c876b820c1fcb15d375",
}


@pytest.mark.parametrize("name", list(QUERY_SHA256))
def test_query_digest(capsys, name):
    calls = []
    for line in QUERIES.splitlines():
        command, type_name, m, x, y = line.split()
        if type_name == name:
            code = main([command, "--type", type_name, "--m", m, "--", x, y])
            calls.append([code, capsys.readouterr().out])
    assert len(calls) == 13
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == QUERY_SHA256[name]


# sha256 of ``json.dumps(dense_ext(mcluster_category(rs, m)))``, by
# (type, kept vertices or None, m): the values themselves, which a wrong
# entry that stays symmetric would leave the ``verify`` text blind to.
EXT_TABLE_SHA256 = {
    ("A3", None, 4): "ddc75c1c7c034aca0ec2297893c8cbf6df632fb98a7b072696464d3d4b79adc6",
    ("D4", None, 3): "0db879073241db0d2a0dd3ac6e09b439752d06f971cddb6b18c639bf6eeb5595",
    ("E6", None, 2): "25602e89a445450b459fe48dbb434deb7ee650f60916e0866518f75196890540",
    ("E7", None, 1): "466397b0bdf2b5d8696b9d22014ac68d753c054ea4340a774c3fd0cfce546f70",
    (*REDUCIBLE[2], 3): "83b3fc19311f8e3d099704b60ea30e98336ff2977766e577b568f864defb3a20",
}


@pytest.mark.parametrize("name,keep,m", list(EXT_TABLE_SHA256))
def test_ext_table_digest(name, keep, m):
    table = dense_ext(mcluster_category(system(name, keep), m))
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
    assert digest == EXT_TABLE_SHA256[name, keep, m]


# sha256 of the ``mcluster export-zq`` DOT text, by (type, window); 1:0 is
# an inverted window, which gives the empty digraph.
EXPORT_ZQ_SHA256 = {
    ("A1", "0:5"): "1cae0b8bc2840f8de4a03488ee9fd518a6c73cf4d0e68e08a5707d92c633c1c6",
    ("A3", "-3:3"): "2629f5bfb9ef5d5ada641266a822033780a854d0d6fbc96acfebad9e515dd2a3",
    ("D5", "-2:2"): "4578150f45f911642f06bc854fb5ee2e2712dde2cbb543de3195b2c14d30c94b",
    ("E6", "-3:4"): "2d6e5fe9719045b357721c29db68fe0a81787bef071be53e17b5330fb0c5c5b3",
    ("A3", "1:0"): "33b0bd3a175c8e69ad25589bbc94a1f086f7e79dd8cc9a95239054b942eabf18",
}


@pytest.mark.parametrize("name,window", list(EXPORT_ZQ_SHA256))
def test_export_zq_digest(capsys, name, window):
    code = main(["export-zq", "--type", name, f"--window={window}"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_ZQ_SHA256[name, window]
