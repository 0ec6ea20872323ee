"""Golden output: the full ``mcluster verify`` text, the sha256 of the
``mcluster enumerate`` JSON on a few instances, the sha256 of the
exit codes and stdout of a fixed list of ``compat`` and ``ext`` calls,
the sha256 of a few whole Ext tables, of a few ``export-zq`` DOT texts
and of the fine-degree tables.  A change that is meant to leave the output alone must leave
these values alone; a change that means to alter the output updates
them and says why."""

import hashlib
import json

import pytest

from conftest import ALL_SYSTEMS, REDUCIBLE, dense_ext, fine_table, system
from mclusters import derived_category
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
# an inverted window, which gives the empty digraph, and the last four
# windows leave out coarse degree 0, above it, below it, at one degree and
# ending at it.
EXPORT_ZQ_SHA256 = {
    ("A1", "0:5"): "1cae0b8bc2840f8de4a03488ee9fd518a6c73cf4d0e68e08a5707d92c633c1c6",
    ("A3", "-3:3"): "2629f5bfb9ef5d5ada641266a822033780a854d0d6fbc96acfebad9e515dd2a3",
    ("D5", "-2:2"): "4578150f45f911642f06bc854fb5ee2e2712dde2cbb543de3195b2c14d30c94b",
    ("E6", "-3:4"): "2d6e5fe9719045b357721c29db68fe0a81787bef071be53e17b5330fb0c5c5b3",
    ("A3", "1:0"): "33b0bd3a175c8e69ad25589bbc94a1f086f7e79dd8cc9a95239054b942eabf18",
    ("E6", "2:4"): "598d909c02d393eb31d499986e79ba30ce4eab01b9515346c32f1342e439adbf",
    ("D5", "-4:-1"): "735b718041d57917742ea5bd6b53de291e37d27a33dfe5a87cb9293fa703da56",
    ("A4", "3:3"): "4b8e54724917cf4b69ef4e97637bf0827fd97503294c3e95e0c26ffadae3b328",
    ("E7", "-1:0"): "88bb2974ab2eb2049f5d1931dd4e4d40aed13b582b84b3db8029c246eee4a85f",
}


@pytest.mark.parametrize("name,window", list(EXPORT_ZQ_SHA256))
def test_export_zq_digest(capsys, name, window):
    code = main(["export-zq", "--type", name, f"--window={window}"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_ZQ_SHA256[name, window]


def test_export_zq_reducible_digest():
    # The library export of E7 without vertex 3 (A2 + A3 + A1), whose rows
    # repeat with the Coxeter numbers of three components.
    dot = derived_category(system(*REDUCIBLE[2])).export_zq_dot(-2, 2)
    assert hashlib.sha256(dot.encode()).hexdigest() == \
        "4801586dcdec4bad74d25c2b69d5152632527096eedc3c20012c4bf913d2b67c"


# sha256 of ``repr(sorted(phi.items()))``, the reference fine-degree table, by
# (type, kept vertices or None) for every entry of ``ALL_SYSTEMS``.
FINE_TABLE_SHA256 = {
    ("A1", None): "a3af31e2ff8f9f4e818f900f05a711dd97e1258bd43e287e7477800e3a95aa24",
    ("A2", None): "e2b1a3b900e6e67255a8f53b75af99fa402838b2adf3204d962267a002a7e97c",
    ("A3", None): "5d3e557dd66cbdedf9ff361ca60c37c1df63ce90867e8359d2cef980c24e92f5",
    ("A4", None): "fdf7ec4a348ae3634b32b7d8cd8e6f4132e1f16dfe50f77f1c94249d3f3b2009",
    ("A5", None): "53cb8ffa916af6e2e426884d3814cf304e61ccf121e333070b823b5f410a8d67",
    ("A6", None): "497fa9d2667ecebf27f5c09c71c81a239fc5a308d3a75fb7734eb07df2a37872",
    ("A7", None): "8d622bfff8e8e867779f45a6ea923b35cd1a695b8e36eefb1c5452a112429fcb",
    ("A8", None): "28c9ca22dc46420c139611c2fda8f1ee70ea5bf2ca2acff926a37d75ed38413c",
    ("D4", None): "9e8041a0d14c0f0e1fe9bc8789223c055dfaaf6e5ac2a6750c5bf70af1025faf",
    ("D5", None): "8b5d303b3e039db82a9770e69d26d63dfc37d6d8f92e62599b968d2267019b5c",
    ("D6", None): "4b35b8d31ff51df421dcc722445785b9ce353aa31d181c2593d668f12a8a9dbf",
    ("D7", None): "ad9da250d4866c107402d08a5edf80a979648c302ca7968bab76b0319634e192",
    ("D8", None): "0bd9ab269ace6c509b3536022042ce821795b7ebd51866b45722661df8550408",
    ("E6", None): "661abe5f58865dd5126a344617dff37659c2f4f476638094bcf404b9e985207d",
    ("E7", None): "fa69bf29a9111466bbfec790d8748d322621db0768039b1dd6e4021b96b83175",
    ("E8", None): "7eaf39cd0e7e68daba5b12c3d19677b8d99b3e6c2d2f3cfde30eee0709cd6a10",
    ("A3", (0, 2)): "f53a45d3b7e69a1887c443af9916abab4e848ba0bf64912afeb7295f31fe77d5",
    ("D4", (0, 2, 3)): "bd1c6c88c67b5a96387596c16614e49ff60d8b91d90cede8262ccb2c1f0f2035",
    ("E7", (0, 1, 3, 4, 5, 6)): "adb30eed58fca8f55cd80257c11a36af3d7f6877f90f336b9ac4b6f43b236e67",
}


@pytest.mark.parametrize("name,keep", ALL_SYSTEMS)
def test_fine_table_digest(name, keep):
    phi = fine_table(derived_category(system(name, keep)))
    digest = hashlib.sha256(repr(sorted(phi.items())).encode()).hexdigest()
    assert digest == FINE_TABLE_SHA256[name, keep]
