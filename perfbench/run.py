"""Benchmark for mclusters: time to a verdict, to a written complex, and
per compatibility query, each measured in fresh processes.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``verify``: ``mcluster verify --type E7 --m 1`` in-process.
* ``enumerate``: the E7 m=2 complex as JSON, without theorem checks.
* ``queries``: a seeded stream of ``mcluster compat`` / ``ext`` calls over
  A6, D6, E6, E7, E8 and m = 1, 2, 3, one root system built per call.

A run first starts a few processes that only import the package and build
the instance (set-up time), then starts one process per timed body, one
after another, until ``--seconds`` have passed.  Every output is checked.
The gated time, ``wall_ref``, is the body's time in units of a fixed
reference computation timed in the same process, so that it follows the
program and not the speed of a shared machine; ``wall_s`` in seconds is
printed beside it.
With ``--trace 1`` a run instead alternates untraced and traced processes
and reports per-layer self times from the spans of the traced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit with its spread.  Spans, the query stream and a
record of each run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_BUDGET_S = 170.0
# Timed bodies per run at the least, so that wall_s is never one process.
MIN_BODIES = 2
# Processes per run that only set up, besides the bodies, for setup_s.
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Config:
    """Instance sizes; the self-test swaps in tiny ones."""

    verify: Tuple[str, int] = ("E7", 1)
    enumerate: Tuple[str, int] = ("E7", 2)
    query_types: Tuple[str, ...] = ("A6", "D6", "E6", "E7", "E8")
    query_ms: Tuple[int, ...] = (1, 2, 3)
    # Queries per (type, m, command) are query_grid ** 2 (see make_stream):
    # 30 classes x 36 = 1080 queries.
    query_grid: int = 6


# Per-layer metrics: the span whose self time each one sums, then counts.
LAYER_SPANS = (
    "cli.parse", "cli.serialize",
    "root_system.build",
    "coloured_roots.ground_set", "coloured_roots.compat", "coloured_roots.degree",
    "quiver_rep.modules", "quiver_rep.hom_dim",
    "derived.category",
    "orbit_category.category", "orbit_category.compat", "orbit_category.ext",
    "orbit_category.ext_symmetry", "orbit_category.ext_degree",
    "orbit_category.rotation_shift",
    "cluster_complex.graph_comb", "cluster_complex.graph_cat",
    "cluster_complex.graph_cat_warm", "cluster_complex.facets",
    "cluster_complex.facet_sizes", "cluster_complex.f_vector",
    "cluster_complex.complements", "cluster_complex.parabolic",
    "cluster_complex.to_json",
)
LAYER_COUNTS = {
    "cli.parse_calls": "count", "cli.json_bytes": "bytes",
    "coloured_roots.compat_calls": "count",
    "quiver_rep.hom_pairs": "count",
    "orbit_category.compat_calls": "count", "orbit_category.ext_query_calls": "count",
    "orbit_category.ext_calls": "count",
    "cluster_complex.pairs": "count", "cluster_complex.facets": "count",
    "cluster_complex.faces": "count", "cluster_complex.ridges": "count",
    "cluster_complex.parabolic_pairs": "count",
}


class BenchError(RuntimeError):
    pass


def make_stream(mc, seed: int, cfg: Config) -> List[List[str]]:
    """``cfg.query_grid ** 2`` queries for every (type, m, command), then
    shuffled.  A query's cost grows with the heights of both its roots, so
    each class is stratified over the pair of heights: the coloured ground
    set, ordered by height, is cut into ``query_grid`` equal strata, and
    every (x stratum, y stratum) cell gives one query with x and y drawn
    uniformly from their strata.  Each pair of roots stays equally likely,
    and the stream's cost varies far less from seed to seed than with
    independent draws.  The order is computed here, so the stream depends
    on the seed and not on the order in which the program lists roots."""
    rng = random.Random(seed)
    g = cfg.query_grid
    stream = []
    for type_name in cfg.query_types:
        rs = mc.build_root_system(mc.parse_type(type_name))
        for m in cfg.query_ms:
            ground = sorted((sum(b), b, c) for b in rs.positive_roots for c in range(1, m + 1))
            names = [f"-e{i}" for i in range(1, rs.n + 1)]
            names += [",".join(map(str, b)) + f":{c}" for _, b, c in ground]
            n = len(names)
            strata = [names[i * n // g:(i + 1) * n // g] for i in range(g)]
            for command in ("compat", "ext"):
                stream += [[command, "--type", type_name, "--m", str(m), "--",
                            rng.choice(sx), rng.choice(sy)]
                           for sx in strata for sy in strata]
    rng.shuffle(stream)
    return stream


def run_child(spec: dict, deadline: float) -> dict:
    """One worker process, waited for; ``setup_s`` runs from just before
    the process is started until the worker reports it is set up."""
    env = {k: v for k, v in os.environ.items() if k != "MCLUSTER_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} {spec['mode']} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} {spec['mode']} worker exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def base_spec(workload: str, seed: int, cfg: Config) -> dict:
    spec = {"root": str(ROOT), "workload": workload}
    if workload == "queries":
        mc = worker.load_mclusters(ROOT)
        stream = make_stream(mc, seed, cfg)
        text = json.dumps(stream)
        path = OUT / f"queries-seed{seed}.json"
        path.write_text(text)
        spec.update(stream=str(path), stream_len=len(stream),
                    stream_sha256=hashlib.sha256(text.encode()).hexdigest())
    else:
        spec["type"], spec["m"] = getattr(cfg, workload)
    return spec


def summarize(children: Sequence[dict]) -> Tuple[int, int, List[str]]:
    """Attempted and failed operations over worker results, and the names
    of the first failed checks."""
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    return attempted, len(failures), failures[:10]


def run(workload: str, seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    if not (ROOT / "src" / "mclusters" / "__init__.py").is_file():
        raise BenchError(f"no package at {ROOT / 'src' / 'mclusters'}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    spec = base_spec(workload, seed, cfg)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "stream_sha256": spec.get("stream_sha256")}
    # First process compiles bytecode and warms the page cache; not timed.
    run_child(dict(spec, mode="setup"), deadline)
    if trace:
        # Untraced and traced processes alternate, so that the overhead
        # compares bodies run under the same machine load.
        untraced, traced, spans = [], [], []
        start = time.monotonic()
        while not traced or time.monotonic() - start < seconds:
            untraced.append(run_child(dict(spec, mode="body"), deadline))
            spans.append(OUT / f"spans-{workload}-seed{seed}-{len(traced)}.json")
            traced.append(run_child(dict(spec, mode="trace", spans=str(spans[-1])), deadline))
        children = untraced + traced
        metrics = layer_metrics(traced, untraced)
        record["spans"] = [str(p.relative_to(ROOT)) for p in spans]
    else:
        setups = [run_child(dict(spec, mode="setup"), deadline) for _ in range(SETUP_REPEATS)]
        bodies = []
        start = time.monotonic()
        while len(bodies) < MIN_BODIES or time.monotonic() - start < seconds:
            bodies.append(run_child(dict(spec, mode="body"), deadline))
        children = bodies
        metrics = end_to_end_metrics(workload, spec, cfg, setups + bodies, bodies, record)
    attempted, failed, failures = summarize(children)
    record.update(attempted=attempted, failed=failed, first_failures=failures,
                  failed_frac=failed / attempted, metrics=metrics)
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2))
    return record


def end_to_end_metrics(workload: str, spec: dict, cfg: Config, setups: Sequence[dict],
                       bodies: Sequence[dict], record: dict) -> Dict[str, dict]:
    """The gated metrics, shared by every workload, and the workload's own
    times, rates and latencies, kept in ``record["extra"]``.

    On a shared machine the processor's speed swings by up to half, for
    stretches of seconds to minutes that often outlast a run, so the
    body's time in seconds moves with the machine as much as with the
    program.  The gated
    ``wall_ref`` divides each body's time by the time of
    ``worker.reference``, a fixed computation timed in the same process
    just before and after it, and takes the mean over the run's bodies.
    ``wall_s``, the mean body time in seconds, is reported beside it."""
    walls = [b["wall_s"] for b in bodies]
    refs = [b["reference_s"] for b in bodies]
    setup = [c["setup_s"] for c in setups]
    rss = [b["rss_mb"] for b in bodies]
    record["samples"] = {"setup_s": setup, "wall_s": walls, "reference_s": refs,
                         "peak_rss_mb": rss}
    metrics = {"setup_s": described(setup, "s"),
               "wall_ref": described([w / r for w, r in zip(walls, refs)], "ref",
                                     statistics.fmean),
               "peak_rss_mb": described(rss, "MB")}
    wall = statistics.fmean(walls)
    record["extra"] = {"wall_s": described(walls, "s", statistics.fmean),
                       "reference_s": described(refs, "s", statistics.fmean)}
    if workload == "enumerate":
        facets = worker.fuss_catalan(worker.EXPONENTS[cfg.enumerate[0]], cfg.enumerate[1])
        record["extra"]["facets_per_s"] = {"value": facets / wall, "unit": "1/s"}
    elif workload == "queries":
        record["extra"]["queries_per_s"] = {"value": spec["stream_len"] / wall, "unit": "1/s"}
        # Percentiles over every call of the run, not medians over bodies.
        lat = [1e3 * t for b in bodies for t in b["latencies_s"]]
        for name, p in (("query_p50_ms", 0.50), ("query_p99_ms", 0.99)):
            record["extra"][name] = {"value": percentile(lat, p), "unit": "ms", "n": len(lat)}
    return metrics


def described(values: Sequence[float], unit: str, center=statistics.median) -> dict:
    """``center`` of the values, median by default, with their quartiles;
    every run has at least MIN_BODIES values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": center(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(traced: Sequence[dict], untraced: Sequence[dict]) -> Dict[str, dict]:
    """Median self time per layer span over the traced processes, and
    counts; a layer the workload does not reach reads 0.
    ``trace.overhead_s`` is the median traced body minus the median
    untraced one, and ``trace.unattributed_s`` the part of the traced body
    that no layer span covers."""
    def med(key: str) -> float:
        return statistics.median(t["self_s"].get(key, 0.0) for t in traced)

    counts = traced[0]["counts"]
    metrics = {f"{name}_s": {"value": med(name), "unit": "s"} for name in LAYER_SPANS}
    metrics.update({name: {"value": counts.get(name, 0), "unit": unit}
                    for name, unit in LAYER_COUNTS.items()})
    traced_wall = statistics.median(t["traced_wall_s"] for t in traced)
    untraced_wall = statistics.median(u["wall_s"] for u in untraced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": med("body"), "unit": "s"}
    return metrics


def report(record: dict) -> List[str]:
    lines = [f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"python={record['python']} nproc={record['nproc']}"
             + (f" stream_sha256={record['stream_sha256']}" if record["stream_sha256"] else "")]
    rows = dict(record["metrics"], **record.get("extra", {}))
    for name, m in rows.items():
        spread = f"  q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
        count = f"  n {m['n']}" if "n" in m else ""
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}{spread}{count}")
    lines.append(f"  failed_frac {record['failed_frac']:.6g} "
                 f"({record['failed']}/{record['attempted']} operations)"
                 + (f" first failures: {record['first_failures']}" if record["failed"] else ""))
    return lines


def result(record: dict) -> dict:
    """The object the last line of stdout holds."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(record)))
    print(json.dumps(result(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
