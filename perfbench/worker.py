"""One benchmark process: set up one workload instance and run it once.

``run.py`` starts this file as a fresh interpreter for every measurement,
so each timed body starts from cold program caches, as a user's
``mcluster`` process would.  Usage::

    python3 perfbench/worker.py '<json spec>'

The spec names the repository root, the workload, the instance and the
mode.  The worker prints one JSON object on stdout.  Modes:

* ``setup``: import the package and build the instance, then stop.
* ``body``: set up, then run the workload's timed body untraced, with
  the fixed reference computation timed just before and just after it.
* ``trace``: set up and run the same work as separate calls into each
  module's public functions, with a span around every call, followed by
  probes that time single layers off the blocking path.

The correctness checks are plain functions of the program's outputs, so
the self-test can feed them wrong outputs and see each one fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Exponents of each Weyl group the benchmark instances use; the Coxeter
# number is the largest exponent plus one.  Kept here, not read from the
# program, so that the expected counts do not depend on the code under test.
EXPONENTS = {
    "A3": (1, 2, 3),
    "E7": (1, 5, 7, 9, 11, 13, 17),
}

# sha256 of ``json.dumps(complex_to_json(rs, m, "combinatorial",
# include_verification=False), indent=2)``: the enumerate output must stay
# byte-identical.
ENUMERATE_DIGESTS = {
    ("A3", 2): "0dacf1edc977ada7fc879f95c37781a4dc730dd5ad6852a80a0f4019fc5beeb7",
    ("E7", 2): "91759effc29e8a2fa86bc24c862b72384f31d853e1af73e42d260dcfe770c64a",
}


def fuss_catalan(exponents: Sequence[int], m: int) -> int:
    """Number of facets of the m-cluster complex: prod (mh + e + 1)/(e + 1)."""
    h = max(exponents) + 1
    value = Fraction(1)
    for e in exponents:
        value *= Fraction(m * h + e + 1, e + 1)
    if value.denominator != 1:
        raise ValueError("Fuss-Catalan number is not an integer")
    return int(value)


def ground_set_size(exponents: Sequence[int], m: int) -> int:
    """m colours of each positive root plus the negative simple roots."""
    n = len(exponents)
    h = max(exponents) + 1
    return m * (n * h // 2) + n


# -- correctness checks -----------------------------------------------------
#
# Each returns a list of (check name, passed) pairs; every pair is one
# attempted operation and every False one failed operation.


def check_verify(rc: int, text: str, type_name: str, m: int) -> List[Tuple[str, bool]]:
    """``mcluster verify`` exits 0, prints one PASS line per suite and no
    FAIL line, and reports the Fuss-Catalan facet count and every pair."""
    exps = EXPONENTS[type_name]
    nodes = ground_set_size(exps, m)
    lines = [line for line in text.splitlines() if line.strip()]
    suites = 7 if m == 1 else 6
    checks = [("exit code 0", rc == 0)]
    for k in range(suites):
        checks.append((f"suite {k + 1} PASS", k < len(lines) and lines[k].startswith("PASS")))
    checks.append(("no FAIL line", not any(line.startswith("FAIL") for line in lines)))
    checks.append(("facet count", f"{fuss_catalan(exps, m)} facets" in text))
    checks.append(("pair count", f"{nodes * (nodes + 1) // 2} pairs" in text))
    return checks


def check_enumerate(data: dict, text: str, type_name: str, m: int) -> List[Tuple[str, bool]]:
    """One operation: the complex has the Fuss-Catalan number of facets,
    every facet has rank many members, and the JSON is byte-stable."""
    exps = EXPONENTS[type_name]
    facets = data.get("facets", [])
    ok = (len(facets) == fuss_catalan(exps, m)
          and all(len(f) == len(exps) for f in facets)
          and hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_DIGESTS[(type_name, m)])
    return [("enumerate output", ok)]


def check_query(argv: Sequence[str], rc: int, text: str, compatible: bool) -> List[Tuple[str, bool]]:
    """One operation per query.  Exit 0 means the CLI's own two-oracle
    cross-check agreed; for ``ext``, "every Ext^i is 0" must equal the
    combinatorial verdict."""
    ok = rc == 0
    if ok and argv[0] == "ext":
        m = int(argv[argv.index("--m") + 1])
        dims = []
        for line in text.splitlines():
            head, sep, value = line.rpartition(" = ")
            if sep and head.startswith("Ext^"):
                dims.append(int(value))
        ok = len(dims) == m and all(d == 0 for d in dims) == compatible
    return [("query", ok)]


# -- the package under test ------------------------------------------------


def load_mclusters(root: Path):
    """Import ``mclusters`` from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mclusters
    importlib.import_module("mclusters.cli")
    where = Path(mclusters.__file__).resolve()
    if not where.is_relative_to(src):
        raise SystemExit(f"perfbench: imported mclusters from {where}, not from {src}")
    return mclusters


def parse_root(text: str, n: int):
    """Coloured root from the stream syntax ``c1,...,cn:colour`` or ``-ei``,
    parsed here so the query check does not lean on the CLI's parser."""
    if text.startswith("-e"):
        i = int(text[2:])
        return tuple(-1 if j == i - 1 else 0 for j in range(n)), 1
    coeffs, colour = text.rsplit(":", 1)
    return tuple(int(c) for c in coeffs.split(",")), int(colour)


def call_cli(mc, argv: Sequence[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mc.cli.main(list(argv))
    return rc, out.getvalue()


# -- machine speed ------------------------------------------------------------


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation that uses nothing
    of the program: tuple hashing, dict updates, a sort with a key
    function.  On a shared machine the processor's speed swings by up to
    half for seconds to minutes at a time; timed next to a body in the
    same process, this tells how fast the machine ran while the body did.
    It keeps under a megabyte live, so it does not raise the body's peak
    RSS."""
    t0 = time.perf_counter()
    for _ in range(60):
        counts: Dict[Tuple[int, int], int] = {}
        for i in range(20000):
            key = (i % 61, i % 67)
            counts[key] = counts.get(key, 0) + 1
        acc = 0
        for (a, b), v in sorted(counts.items(), key=lambda kv: (kv[1], kv[0])):
            acc ^= a * b + v
    return time.perf_counter() - t0


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans kept in memory until the run ends.  A span holds its name,
    start, end, the index of its parent span and a query id, which the
    spans of one query share."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self.qid: Optional[int] = None
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "qid": self.qid}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> Dict[str, float]:
        """Per span name, the summed duration minus the time its child
        spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: Dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s["name"]] = totals.get(s["name"], 0.0) + t
        return totals

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


# -- verify: ``mcluster verify --type T --m M`` -------------------------------


def instance_setup(mc, spec: dict, tr: Tracer) -> dict:
    """The root system and ground set of one (type, m) instance.  ``verify``
    builds its own inside the CLI call, as a user's process would."""
    with tr.span("root_system.build"):
        rs = mc.build_root_system(mc.parse_type(spec["type"]))
    with tr.span("coloured_roots.ground_set"):
        mc.coloured_ground_set(rs, spec["m"])
    return {"rs": rs}


def verify_body(mc, spec: dict, inst: dict) -> dict:
    argv = ["verify", "--type", spec["type"], "--m", str(spec["m"])]
    t0 = time.perf_counter()
    rc, text = call_cli(mc, argv)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "checks": check_verify(rc, text, spec["type"], spec["m"])}


def verify_traced(mc, spec: dict, inst: dict, tr: Tracer) -> dict:
    """The steps of ``cli.cmd_verify`` in its order, one span per call."""
    cli = mc.cli
    argv = ["verify", "--type", spec["type"], "--m", str(spec["m"])]
    lines = []

    def record(name: str, ok: bool, detail: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    with tr.span("body"):
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
        tr.count("cli.parse_calls")
        m = args.m
        with tr.span("root_system.build"):
            rs = mc.build_root_system(mc.parse_type(args.type))
        with tr.span("derived.category"):
            d = mc.derived_category(rs)
        with tr.span("orbit_category.category"):
            cat = mc.mcluster_category(rs, m)
        with tr.span("coloured_roots.ground_set"):
            ground = mc.coloured_ground_set(rs, m)
        with tr.span("cluster_complex.graph_comb"):
            g_comb = mc.build_graph(rs, m, "combinatorial")
        tr.count("cluster_complex.pairs", len(ground) * (len(ground) + 1) // 2)
        with tr.span("cluster_complex.graph_cat"):
            g_cat = mc.build_graph(rs, m, "categorical")
        record("oracle equivalence", g_comb.adjacency == g_cat.adjacency,
               f"{len(ground)} nodes, {len(ground) * (len(ground) + 1) // 2} pairs")

        with tr.span("cluster_complex.facets"):
            facets = mc.enumerate_facets(g_comb)
        tr.count("cluster_complex.facets", len(facets))
        with tr.span("cluster_complex.facet_sizes"):
            sizes = mc.verify_facet_sizes(facets, rs.n)
        record("facet sizes = rank", sizes.passed, f"{len(facets)} facets")

        with tr.span("cluster_complex.complements"):
            comps = mc.verify_complement_counts(g_comb, facets)
        tr.count("cluster_complex.ridges", comps.checked)
        record(f"complement count = {m + 1}", comps.passed,
               f"{comps.checked} almost-complete sets")

        parab_ok, parab_pairs = True, 0
        with tr.span("cluster_complex.parabolic"):
            for drop in range(rs.n if rs.n > 1 else 0):
                keep = [v for v in range(rs.n) if v != drop]
                rep = mc.verify_parabolic_restriction(rs, m, keep)
                parab_ok &= rep.passed
                parab_pairs += rep.checked
        tr.count("cluster_complex.parabolic_pairs", parab_pairs)
        record("parabolic restriction", parab_ok, f"{parab_pairs} supported pairs")

        with tr.span("orbit_category.rotation_shift"):
            rot_ok = all(cat.shift_matches_rotation(x) for x in ground)
        record("rotation matches shift", rot_ok, f"{len(ground)} coloured roots")

        with tr.span("orbit_category.ext_symmetry"):
            objs = cat.objects()
            sym_ok = all(cat.ext_symmetry(X, Y, i)
                         for X in objs for Y in objs for i in range(1, m + 1))
        tr.count("orbit_category.ext_calls", 2 * len(objs) ** 2 * m)
        record("Ext dimension symmetry", sym_ok, f"{len(objs) ** 2 * m} (pair, degree) instances")

        if m == 1:
            almost = list(rs.positive_roots) + [rs.negative_simple(i) for i in range(rs.n)]
            with tr.span("orbit_category.ext_degree"):
                exts = [cat.ext(d.V(a), d.V(b), 1) for a in almost for b in almost]
            with tr.span("coloured_roots.degree"):
                degs = [mc.compatibility_degree(rs, a, b) for a in almost for b in almost]
            record("Ext^1 = compatibility degree", exts == degs, f"{len(almost) ** 2} ordered pairs")

    rc = 1 if any(line.startswith("FAIL") for line in lines) else 0
    checks = check_verify(rc, "\n".join(lines) + "\n", spec["type"], m)

    # Probes: single layers timed off the blocking path.
    with tr.span("probe"):
        with tr.span("cluster_complex.graph_cat_warm"):
            mc.build_graph(rs, m, "categorical")
        modules = _modules_probe(mc, rs, tr)
        with tr.span("quiver_rep.hom_dim"):
            for a in modules:
                for b in modules:
                    mc.hom_dim(a, b)
        tr.count("quiver_rep.hom_pairs", len(modules) ** 2)
    return {"checks": checks}


def _modules_probe(mc, rs, tr: Tracer) -> list:
    with tr.span("quiver_rep.modules"):
        return [mc.indecomposable_for_root(rs, b) for b in rs.positive_roots]


# -- enumerate: the complex as ``mcluster enumerate`` writes it ----------------


def enumerate_body(mc, spec: dict, inst: dict) -> dict:
    t0 = time.perf_counter()
    data = mc.complex_to_json(inst["rs"], spec["m"], "combinatorial", include_verification=False)
    text = json.dumps(data, indent=2)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "checks": check_enumerate(data, text, spec["type"], spec["m"])}


def enumerate_traced(mc, spec: dict, inst: dict, tr: Tracer) -> dict:
    """The steps of ``complex_to_json`` without verification, then the
    JSON text, one span per call."""
    from mclusters.coloured_roots import coloured_to_json
    rs, m = inst["rs"], spec["m"]
    with tr.span("body"):
        with tr.span("cluster_complex.graph_comb"):
            g = mc.build_graph(rs, m, "combinatorial")
        tr.count("cluster_complex.pairs", len(g.nodes) * (len(g.nodes) + 1) // 2)
        with tr.span("cluster_complex.facets"):
            facets = mc.enumerate_facets(g)
        tr.count("cluster_complex.facets", len(facets))
        with tr.span("cluster_complex.to_json"):
            data = {
                "type": str(rs.type) if rs.type else None,
                "rank": rs.n,
                "m": m,
                "oracle": g.oracle_tag,
                "nodes": [coloured_to_json(x) for x in g.nodes],
                "facets": [list(f.indices) for f in facets],
            }
        with tr.span("cluster_complex.f_vector"):
            data["f_vector"] = mc.f_vector(g)
        tr.count("cluster_complex.faces", sum(data["f_vector"]))
        with tr.span("cli.serialize"):
            text = json.dumps(data, indent=2)
        tr.count("cli.json_bytes", len(text.encode()))
    return {"checks": check_enumerate(data, text, spec["type"], m)}


# -- queries: a seeded stream of ``mcluster compat`` / ``mcluster ext`` ------


def queries_setup(mc, spec: dict, tr: Tracer) -> dict:
    return {"stream": json.loads(Path(spec["stream"]).read_text())}


def queries_body(mc, spec: dict, inst: dict) -> dict:
    stream = inst["stream"]
    latencies, outputs = [], []
    t0 = time.perf_counter()
    for argv in stream:
        t = time.perf_counter()
        outputs.append(call_cli(mc, argv))
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "latencies_s": latencies,
            "checks": _check_stream(mc, stream, outputs)}


def queries_traced(mc, spec: dict, inst: dict, tr: Tracer) -> dict:
    """The steps of ``cli.cmd_compat`` / ``cli.cmd_ext`` for every query,
    one span per call; the spans of one query share its index as id."""
    stream = inst["stream"]
    outputs = []
    with tr.span("body"):
        for qid, argv in enumerate(stream):
            tr.qid = qid
            outputs.append(_traced_query(mc, argv, tr))
        tr.qid = None
    checks = _check_stream(mc, stream, outputs)
    largest = max({argv[2] for argv in stream}, key=lambda t: (t[0] == "E", int(t[1:])))
    with tr.span("probe"):
        _modules_probe(mc, mc.build_root_system(mc.parse_type(largest)), tr)
    return {"checks": checks}


def _traced_query(mc, argv: Sequence[str], tr: Tracer) -> Tuple[int, str]:
    cli = mc.cli
    with tr.span("cli.parse"):
        args = cli.build_parser().parse_args(list(argv))
    tr.count("cli.parse_calls")
    m = args.m
    with tr.span("root_system.build"):
        rs = mc.build_root_system(mc.parse_type(args.type))
    if args.command == "compat":
        with tr.span("cli.parse"):
            x = cli.parse_coloured_root(rs, m, args.x)
            y = cli.parse_coloured_root(rs, m, args.y)
        with tr.span("coloured_roots.compat"):
            comb = mc.compatible_combinatorial(rs, m, x, y)
        tr.count("coloured_roots.compat_calls")
        with tr.span("derived.category"):
            mc.derived_category(rs)
        with tr.span("orbit_category.category"):
            mc.mcluster_category(rs, m)
        with tr.span("orbit_category.compat"):
            cat = mc.compatible_categorical(rs, m, x, y)
        tr.count("orbit_category.compat_calls")
        if m == 1:
            with tr.span("coloured_roots.degree"):
                mc.compatibility_degree(rs, x.root, y.root)
        return (0 if comb == cat else 1), ""
    with tr.span("derived.category"):
        mc.derived_category(rs)
    with tr.span("orbit_category.category"):
        cat = mc.mcluster_category(rs, m)
    with tr.span("cli.parse"):
        x = cli.parse_coloured_root(rs, m, args.x)
        y = cli.parse_coloured_root(rs, m, args.y)
    with tr.span("orbit_category.ext"):
        X, Y = cat.W(x), cat.W(y)
        dims = [cat.ext(X, Y, i) for i in range(1, m + 1)]
    tr.count("orbit_category.ext_query_calls")
    return 0, "".join(f"Ext^{i}({X}, {Y}) = {d}\n" for i, d in enumerate(dims, start=1))


def _check_stream(mc, stream: Sequence[Sequence[str]], outputs) -> List[Tuple[str, bool]]:
    """Checked after the timed stream, with root systems of the checker's own."""
    systems: Dict[str, object] = {}
    checks = []
    for argv, (rc, text) in zip(stream, outputs):
        type_name, m = argv[2], int(argv[4])
        rs = systems.get(type_name)
        if rs is None:
            rs = systems[type_name] = mc.build_root_system(mc.parse_type(type_name))
        x, y = (mc.ColouredRoot(*parse_root(t, rs.n)) for t in argv[-2:])
        checks += check_query(argv, rc, text, mc.compatible_combinatorial(rs, m, x, y))
    return checks


WORKLOADS = {
    "verify": (instance_setup, verify_body, verify_traced),
    "enumerate": (instance_setup, enumerate_body, enumerate_traced),
    "queries": (queries_setup, queries_body, queries_traced),
}


def main(argv: Sequence[str]) -> int:
    spec = json.loads(argv[1])
    setup, body, traced = WORKLOADS[spec["workload"]]
    tr = Tracer()
    with tr.span("setup"):
        mc = load_mclusters(Path(spec["root"]))
        inst = setup(mc, spec, tr)
    out: dict = {"ready": time.monotonic()}
    if spec["mode"] == "body":
        before = reference()
        out.update(body(mc, spec, inst))
        out["reference_s"] = (before + reference()) / 2
    elif spec["mode"] == "trace":
        out.update(traced(mc, spec, inst, tr))
        out["self_s"] = tr.self_times()
        out["counts"] = tr.counts
        out["traced_wall_s"] = tr.duration("body")
        Path(spec["spans"]).write_text(json.dumps(
            {"workload": spec["workload"], "spans": tr.spans, "counts": tr.counts}))
    checks = out.pop("checks", [])
    out["attempted"] = len(checks)
    out["failures"] = [name for name, ok in checks if not ok]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
