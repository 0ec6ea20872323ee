"""Fast self-test of the benchmark harness, on tiny instances.

    python3 perfbench/selftest.py

Runs every workload on A3 m=2 (``queries``: a 16-query stream over A3,
m = 1, 2) untraced and traced.  It checks that each run emits exactly the
metrics ``BENCHMARK.json`` names, with their units, and that every run is
correct; that every correctness check fails on a wrong output; and that the
benchmark refuses to run without the package or with another copy of it.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import worker

TINY = run.Config(verify=("A3", 2), enumerate=("A3", 2), query_types=("A3",),
                  query_ms=(1, 2), query_grid=2)

# Layers each workload reaches on the tiny instances; every other layer
# must read 0.  ``verify`` at m=2 runs no degree check.
REACHED = {
    "verify": {
        "cli.parse_s", "root_system.build_s", "coloured_roots.ground_set_s",
        "derived.category_s", "orbit_category.category_s", "quiver_rep.modules_s",
        "quiver_rep.hom_dim_s", "cluster_complex.graph_comb_s", "cluster_complex.graph_cat_s",
        "cluster_complex.graph_cat_warm_s", "cluster_complex.facets_s",
        "cluster_complex.facet_sizes_s", "cluster_complex.complements_s",
        "cluster_complex.parabolic_s", "orbit_category.rotation_shift_s",
        "orbit_category.ext_symmetry_s",
        "cli.parse_calls", "quiver_rep.hom_pairs", "cluster_complex.pairs",
        "cluster_complex.facets", "cluster_complex.ridges", "cluster_complex.parabolic_pairs",
        "orbit_category.ext_calls",
    },
    "enumerate": {
        "root_system.build_s", "coloured_roots.ground_set_s", "cluster_complex.graph_comb_s",
        "cluster_complex.facets_s", "cluster_complex.to_json_s", "cluster_complex.f_vector_s",
        "cli.serialize_s",
        "cluster_complex.pairs", "cluster_complex.facets", "cluster_complex.faces",
        "cli.json_bytes",
    },
    "queries": {
        "cli.parse_s", "root_system.build_s", "coloured_roots.compat_s", "coloured_roots.degree_s",
        "derived.category_s", "orbit_category.category_s", "orbit_category.compat_s",
        "orbit_category.ext_s", "quiver_rep.modules_s",
        "cli.parse_calls", "coloured_roots.compat_calls", "orbit_category.compat_calls",
        "orbit_category.ext_query_calls",
    },
}
TRACE_METRICS = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.unattributed_s"}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def failing(checks, name: str) -> bool:
    return any(n == name and not ok for n, ok in checks)


def test_verify_checks() -> None:
    good = ("PASS  oracle equivalence: 15 nodes, 120 pairs\n"
            "PASS  facet sizes = rank: 55 facets\n"
            + "PASS  more\n" * 4)
    expect(all(ok for _, ok in worker.check_verify(0, good, "A3", 2)), "good verify output")
    expect(failing(worker.check_verify(1, good, "A3", 2), "exit code 0"), "exit code")
    for k in range(6):
        lines = good.splitlines()
        lines[k] = "FAIL" + lines[k][4:]
        checks = worker.check_verify(0, "\n".join(lines), "A3", 2)
        expect(failing(checks, f"suite {k + 1} PASS") and failing(checks, "no FAIL line"),
               f"FAIL line {k + 1}")
    expect(failing(worker.check_verify(0, good + "FAIL  extra\n", "A3", 2), "no FAIL line"),
           "extra FAIL line")
    short = "\n".join(good.splitlines()[:5])
    expect(failing(worker.check_verify(0, short, "A3", 2), "suite 6 PASS"), "missing suite")
    expect(failing(worker.check_verify(0, good.replace("55 facets", "54 facets"), "A3", 2),
                   "facet count"), "facet count")
    expect(failing(worker.check_verify(0, good.replace("120 pairs", "119 pairs"), "A3", 2),
                   "pair count"), "pair count")


def test_enumerate_checks() -> None:
    mc = worker.load_mclusters(run.ROOT)
    rs = mc.build_root_system(mc.parse_type("A3"))
    data = mc.complex_to_json(rs, 2, "combinatorial", include_verification=False)
    text = json.dumps(data, indent=2)
    expect(worker.check_enumerate(data, text, "A3", 2) == [("enumerate output", True)],
           "good enumerate output")
    fewer = dict(data, facets=data["facets"][:-1])
    expect(failing(worker.check_enumerate(fewer, text, "A3", 2), "enumerate output"),
           "facet count")
    wrong_size = dict(data, facets=[data["facets"][0][:-1]] + data["facets"][1:])
    expect(failing(worker.check_enumerate(wrong_size, text, "A3", 2), "enumerate output"),
           "facet size")
    expect(failing(worker.check_enumerate(data, text + " ", "A3", 2), "enumerate output"),
           "digest")
    expect(worker.fuss_catalan(worker.EXPONENTS["E7"], 2) == 144210, "E7 m=2 Fuss-Catalan")
    expect(worker.fuss_catalan(worker.EXPONENTS["E7"], 1) == 4160, "E7 m=1 Fuss-Catalan")


def test_query_checks() -> None:
    compat = ["compat", "--type", "A3", "--m", "2", "--", "1,0,0:1", "-e1"]
    ext = ["ext", "--type", "A3", "--m", "2", "--", "1,0,0:1", "-e1"]
    zero = "Ext^1(a, b) = 0\nExt^2(a, b) = 0\n"
    one = "Ext^1(a, b) = 1\nExt^2(a, b) = 0\n"
    expect(worker.check_query(compat, 0, "", True) == [("query", True)], "good compat")
    expect(worker.check_query(ext, 0, zero, True) == [("query", True)], "good ext")
    expect(worker.check_query(ext, 0, one, False) == [("query", True)], "good ext, nonzero")
    expect(failing(worker.check_query(compat, 1, "", True), "query"), "compat exit code")
    expect(failing(worker.check_query(ext, 2, zero, True), "query"), "ext exit code")
    expect(failing(worker.check_query(ext, 0, zero, False), "query"), "ext zero but incompatible")
    expect(failing(worker.check_query(ext, 0, one, True), "query"), "ext nonzero but compatible")
    expect(failing(worker.check_query(ext, 0, "Ext^1(a, b) = 0\n", True), "query"),
           "ext missing degree")


def test_failures_propagate() -> None:
    attempted, failed, names = run.summarize([{"attempted": 3, "failures": []},
                                              {"attempted": 2, "failures": ["query"]}])
    expect((attempted, failed, names) == (5, 1, ["query"]), "summarize")
    record = {"failed": 1, "attempted": 5, "metrics": {}}
    expect(run.result(record)["correct"] is False, "a failed operation makes the run incorrect")


def test_guards() -> None:
    worker.load_mclusters(run.ROOT)
    try:
        worker.load_mclusters(run.OUT / "elsewhere")
    except SystemExit:
        pass
    else:
        raise AssertionError("a copy of mclusters outside src/ was accepted")
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a checkout without src/ must fail without a result")


def test_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    expect({w["name"] for w in spec["workloads"]} == set(worker.WORKLOADS), "workload names")
    for workload in worker.WORKLOADS:
        for trace in (False, True):
            record = run.run(workload, 1, 0.0, trace, TINY)
            out = run.result(record)
            emitted = {k: m["unit"] for k, m in out["metrics"].items()}
            expect(emitted == units[trace], f"{workload} trace={trace} metrics {emitted}")
            expect(out["correct"] and out["attempted"] >= 1 and out["failed"] == 0,
                   f"{workload} trace={trace} correct")
            if trace:
                for name, m in out["metrics"].items():
                    if name in TRACE_METRICS:
                        continue
                    reached = name in REACHED[workload]
                    expect((m["value"] > 0) == reached,
                           f"{workload}: {name} = {m['value']}, reached={reached}")
            else:
                expect(all(m["value"] > 0 for m in out["metrics"].values()),
                       f"{workload}: end-to-end metric reads 0")


def main() -> int:
    tests = [test_verify_checks, test_enumerate_checks, test_query_checks,
             test_failures_propagate, test_guards, test_runs]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
