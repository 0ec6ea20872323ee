"""Compatibility graph, face/facet enumeration, and theorem checks.

Facets are found with Bron-Kerbosch maximal-clique search with pivoting;
all orderings are fixed so that serialized output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .coloured_roots import (ColouredRoot, coloured_ground_set, coloured_to_json,
                             compatible_combinatorial)
from .orbit_category import compatible_categorical
from .root_system import RootSystem, parabolic, restrict_root

ORACLES = ("combinatorial", "categorical")


@dataclass
class CompatibilityGraph:
    rs: RootSystem
    m: int
    oracle_tag: str
    nodes: List[ColouredRoot]
    adjacency: List[List[bool]]

    def index(self, x: ColouredRoot) -> int:
        return self.nodes.index(x)

    def neighbors(self, i: int) -> Set[int]:
        return {j for j, a in enumerate(self.adjacency[i]) if a and j != i}


@dataclass(frozen=True)
class TiltingSet:
    indices: Tuple[int, ...]
    members: Tuple[ColouredRoot, ...]


@dataclass
class Report:
    name: str
    passed: bool
    checked: int
    failures: List = field(default_factory=list)


def build_graph(rs: RootSystem, m: int, oracle: str = "combinatorial") -> CompatibilityGraph:
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}")
    oracle_fn: Callable = compatible_combinatorial if oracle == "combinatorial" else compatible_categorical
    nodes = coloured_ground_set(rs, m)
    size = len(nodes)
    adjacency = [[False] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            verdict = oracle_fn(rs, m, nodes[i], nodes[j])
            adjacency[i][j] = verdict
            adjacency[j][i] = verdict
    return CompatibilityGraph(rs, m, oracle, nodes, adjacency)


def enumerate_facets(g: CompatibilityGraph) -> List[TiltingSet]:
    """All maximal cliques, lexicographically ordered by node index."""
    size = len(g.nodes)
    neighbors = [g.neighbors(i) for i in range(size)]
    found: List[Tuple[int, ...]] = []

    def bk(clique: Set[int], candidates: Set[int], excluded: Set[int]) -> None:
        if not candidates and not excluded:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(sorted(candidates | excluded),
                    key=lambda u: len(candidates & neighbors[u]))
        for v in sorted(candidates - neighbors[pivot]):
            bk(clique | {v}, candidates & neighbors[v], excluded & neighbors[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    bk(set(), set(range(size)), set())
    found.sort()
    return [TiltingSet(idx, tuple(g.nodes[i] for i in idx)) for idx in found]


def verify_facet_sizes(facets: Sequence[TiltingSet], n: int) -> Report:
    failures = [f for f in facets if len(f.indices) != n]
    return Report("facet-sizes", not failures, len(facets), failures)


def complements(g: CompatibilityGraph, t: Sequence[int]) -> List[int]:
    """Node indices x outside an almost-complete set t such that t+{x} is
    a facet (pairwise compatible and maximal), by a scan of the graph.
    ``verify_complement_counts`` counts the same completions from the
    facet list instead."""
    tset = set(t)
    if len(tset) != g.rs.n - 1:
        raise ValueError(f"almost-complete set must have {g.rs.n - 1} members")
    for a in t:
        for b in t:
            if a != b and not g.adjacency[a][b]:
                raise ValueError("input set is not pairwise compatible")
    size = len(g.nodes)
    out = []
    for x in range(size):
        if x in tset or not all(g.adjacency[x][a] for a in tset):
            continue
        clique = tset | {x}
        maximal = all(any(not g.adjacency[u][v] for v in clique)
                      for u in range(size) if u not in clique)
        if maximal:
            out.append(x)
    return out


def ridge_counts(facets: Sequence[TiltingSet]) -> Dict[Tuple[int, ...], int]:
    """For each ridge (a facet minus one element), the number of facets
    that are the ridge plus one element.  Given the complete facet list,
    this is ``len(complements(g, ridge))``."""
    counts: Dict[Tuple[int, ...], int] = {}
    for f in facets:
        idx = f.indices
        for k in range(len(idx)):
            ridge = idx[:k] + idx[k + 1:]
            counts[ridge] = counts.get(ridge, 0) + 1
    return counts


def verify_complement_counts(g: CompatibilityGraph, facets: Sequence[TiltingSet]) -> Report:
    """Every facet minus one element must have exactly m+1 completions,
    i.e. lie in exactly m+1 facets.  Each ridge with another count is
    reported as ``(ridge, count)``; ``checked`` is the number of ridges."""
    counts = ridge_counts(facets)
    failures = [(t, c) for t, c in counts.items() if c != g.m + 1]
    return Report("complement-counts", not failures, len(counts), failures)


def f_vector(g: CompatibilityGraph) -> List[int]:
    """Face counts by cardinality, via recursive clique extension."""
    size = len(g.nodes)
    counts: Dict[int, int] = {0: 1}

    def extend(depth: int, candidates: List[int]) -> None:
        for pos, v in enumerate(candidates):
            counts[depth + 1] = counts.get(depth + 1, 0) + 1
            extend(depth + 1, [w for w in candidates[pos + 1:] if g.adjacency[v][w]])

    extend(0, list(range(size)))
    top = max(counts)
    return [counts.get(k, 0) for k in range(top + 1)]


def supported_ground_set(rs: RootSystem, m: int, kept: Sequence[int]) -> List[ColouredRoot]:
    keep = set(kept)
    out = []
    for x in coloured_ground_set(rs, m):
        support = {v for v, c in enumerate(x.root) if c != 0}
        if support <= keep:
            out.append(x)
    return out


def _per_component(rs: RootSystem, oracle_fn: Callable) -> Callable:
    """``oracle_fn`` extended to a possibly reducible system: the complex of
    a reducible system is the join of its components' complexes, so roots
    in different components are compatible, and roots in one component
    are judged in that component's irreducible system, built once here."""
    if rs.irreducible:
        return oracle_fn
    parts = [(verts, parabolic(rs, verts)) for verts in (sorted(c) for c in rs.components)]
    owner = {v: k for k, (verts, _) in enumerate(parts) for v in verts}

    def verdict(_rs: RootSystem, m: int, x: ColouredRoot, y: ColouredRoot) -> bool:
        kx = owner[next(v for v, c in enumerate(x.root) if c)]
        ky = owner[next(v for v, c in enumerate(y.root) if c)]
        if kx != ky:
            return True
        verts, comp = parts[kx]
        return oracle_fn(comp, m, ColouredRoot(restrict_root(x.root, verts), x.colour),
                         ColouredRoot(restrict_root(y.root, verts), y.colour))

    return verdict


def verify_parabolic_restriction(rs: RootSystem, m: int, keep: Sequence[int],
                                 oracle: str = "combinatorial") -> Report:
    """Compatibility of pairs supported on ``keep`` must agree between the
    full system and the parabolic subsystem.  The categorical oracle needs
    an irreducible system, so on a reducible one it runs per component."""
    kept = sorted(set(keep))
    sub = parabolic(rs, kept)
    if oracle == "combinatorial":
        full_fn = sub_fn = compatible_combinatorial
    elif oracle == "categorical":
        full_fn = _per_component(rs, compatible_categorical)
        sub_fn = _per_component(sub, compatible_categorical)
    else:
        raise ValueError(f"oracle must be one of {ORACLES}")
    supported = supported_ground_set(rs, m, kept)
    local = {x: ColouredRoot(restrict_root(x.root, kept), x.colour) for x in supported}
    checked = 0
    failures = []
    for a in range(len(supported)):
        for b in range(a, len(supported)):
            x, y = supported[a], supported[b]
            checked += 1
            full = full_fn(rs, m, x, y)
            restricted = sub_fn(sub, m, local[x], local[y])
            if full != restricted:
                failures.append((x, y, full, restricted))
    return Report(f"parabolic-restriction keep={kept}", not failures, checked, failures)


def complex_to_json(rs: RootSystem, m: int, oracle: str,
                    g: Optional[CompatibilityGraph] = None,
                    include_verification: bool = True) -> dict:
    if g is None:
        g = build_graph(rs, m, oracle)
    facets = enumerate_facets(g)
    data = {
        "type": str(rs.type) if rs.type else None,
        "rank": rs.n,
        "m": m,
        "oracle": g.oracle_tag,
        "nodes": [coloured_to_json(x) for x in g.nodes],
        "facets": [list(f.indices) for f in facets],
        "f_vector": f_vector(g),
    }
    if include_verification:
        sizes = verify_facet_sizes(facets, rs.n)
        comps = verify_complement_counts(g, facets)
        parab = []
        for drop in range(rs.n):
            if rs.n == 1:
                break
            keep = [v for v in range(rs.n) if v != drop]
            rep = verify_parabolic_restriction(rs, m, keep)
            parab.append({"dropped_vertex": drop + 1,
                          "result": "pass" if rep.passed else "fail",
                          "pairs": rep.checked})
        data["verification"] = {
            "theorem2": "pass" if sizes.passed else "fail",
            "theorem3": "pass" if comps.passed else "fail",
            "theorem4": parab,
        }
    return data
