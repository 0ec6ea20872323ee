"""Compatibility graph, face walk, and theorem checks.

One depth-first walk over the faces of the graph's ``int`` row per node
gives the facets in lexicographic order, the f-vector, and the counts that
theorems 2 (facet sizes) and 3 (complement counts) are read off; all
orderings are fixed so that serialized output is byte-stable.  Where no
facet list is asked for and the graph carries its oracle's rotation as an
automorphism, the walk covers one node's link per orbit and weights it by
the orbit's size.  The facet-list checks and ``complements`` are the
references that the tests compare the walk with.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .coloured_roots import (ColouredRoot, coloured_ground_set, coloured_to_json,
                             rotation_table)
from .orbit_category import mcluster_category
from .root_system import RootSystem, parabolic

ORACLES = ("combinatorial", "categorical")


class CompatibilityGraph:
    """One ``int`` row per node: bit ``b`` of ``adjacency[a]`` is set when
    nodes ``a`` and ``b`` are compatible, so bit ``a`` of row ``a`` is set.
    ``rotation``, when given, is the oracle's own rotation as a tuple of
    node ids, node ``a`` sent to ``rotation[a]``: R_m for the combinatorial
    graph, the shift for the categorical one.  Compatibility is invariant
    under it, which ``walk_faces`` checks before it relies on it."""

    def __init__(self, rs: RootSystem, m: int, oracle_tag: str,
                 nodes: List[ColouredRoot], adjacency: List[int],
                 rotation: Optional[Tuple[int, ...]] = None):
        self.rs = rs
        self.m = m
        self.oracle_tag = oracle_tag
        self.nodes = nodes
        self.adjacency = adjacency
        self.rotation = rotation


class TiltingSet(NamedTuple):
    indices: Tuple[int, ...]


class FaceWalk:
    """What ``walk_faces`` counts: faces of each size (the f-vector),
    facets of each size, and a histogram of the number of nodes compatible
    with each face one smaller than the rank (a ridge; the empty face in
    rank 1).  The counts are exact whichever walk produced them."""

    def __init__(self, f_vector: List[int], facet_sizes: Dict[int, int],
                 ridges: Dict[int, int]):
        self.f_vector = f_vector
        self.facet_sizes = facet_sizes
        self.ridges = ridges

    def theorem2(self, rank: int) -> bool:
        """Every facet has ``rank`` elements.  The facet sizes alone settle
        it: a face that extends to a larger clique lies in a larger facet,
        whose size the walk counts."""
        return set(self.facet_sizes) == {rank}

    def theorem3(self, m: int) -> bool:
        """Every ridge lies in exactly m+1 facets.  Once theorem 2 holds, a
        ridge's compatible nodes are exactly its completions."""
        return all(count == m + 1 for count in self.ridges)


class Report:
    """The verdict of one check: ``checked`` cases, ``failures`` the ones
    that failed."""

    def __init__(self, passed: bool, checked: int, failures: List):
        self.passed = passed
        self.checked = checked
        self.failures = failures


def _pairwise(size: int, verdict: Callable[[int, int], bool]) -> List[int]:
    rows = [0] * size
    for a in range(size):
        for b in range(a, size):
            if verdict(a, b):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def build_graph(rs: RootSystem, m: int, oracle: str = "combinatorial") -> CompatibilityGraph:
    """The compatibility graph on ``coloured_ground_set(rs, m)``.  The
    combinatorial oracle is read off the rotation table of ``(rs, m)``,
    the categorical one off the nonzero Ext instances of its m-cluster
    category: two nodes are compatible when every Ext^i between their W
    images vanishes, so each instance (i, a, b) with b >= a clears the pair.
    A reducible system is no special case: Ext between components is 0.
    Each graph's ``rotation`` is its own oracle's: the table's ``perm``, or
    the category's ``shift_permutation``, so neither oracle reads the other."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}")
    if oracle == "combinatorial":
        table = rotation_table(rs, m)
        return CompatibilityGraph(rs, m, oracle, list(table.nodes),
                                  _pairwise(len(table.nodes), table.compatible), table.perm)
    nodes = coloured_ground_set(rs, m)
    rows = [(1 << len(nodes)) - 1] * len(nodes)
    cat = mcluster_category(rs, m)
    for _, a, b, _ in cat.ext_instances():
        if b >= a:
            rows[a] &= ~(1 << b)
            rows[b] &= ~(1 << a)
    return CompatibilityGraph(rs, m, oracle, nodes, rows, cat.shift_permutation())


def _orbits(g: CompatibilityGraph) -> Optional[List[Tuple[int, int]]]:
    """The orbits of ``g.rotation`` as (smallest id, size) when it is a
    permutation of the node ids and an automorphism of ``g.adjacency``,
    otherwise None.  Each row's image is built whole and compared with the
    row of the image node: the ids that the rotation sends to id + 1, most
    of them under R_m, which steps each colour below m to the next, move in
    one shift, and only the others bit by bit."""
    rho, rows = g.rotation, g.adjacency
    if rho is None or sorted(rho) != list(range(len(rows))):
        return None
    step = sum(1 << b for b, c in enumerate(rho) if c == b + 1)
    for a, row in enumerate(rows):
        image, rest = (row & step) << 1, row & ~step
        while rest:
            low = rest & -rest
            rest ^= low
            image |= 1 << rho[low.bit_length() - 1]
        if image != rows[rho[a]]:
            return None
    orbits, seen = [], [False] * len(rho)
    for r in range(len(rho)):
        k, count = r, 0
        while not seen[k]:
            seen[k] = True
            k, count = rho[k], count + 1
        if count:
            orbits.append((r, count))
    return orbits


def walk_faces(g: CompatibilityGraph,
               facets: Optional[List[Tuple[int, ...]]] = None) -> FaceWalk:
    """A depth-first walk over the faces (cliques) of ``g``, in increasing
    node order on the neighbour bitsets.  Each face carries ``above``, its
    candidates above its largest node, and ``common``, every node
    compatible with the whole face; a face is a facet exactly when
    ``common`` is 0.  A face is settled in its parent's loop: its ridge
    count, and whether it is a facet, are read there, and the walk calls
    into it only when it has candidates above.

    With ``facets`` given, or when ``g.rotation`` is not an automorphism of
    ``g`` (see ``_orbits``), the walk covers every face, the empty face
    settled before it, and appends each facet to ``facets``, if given, as a
    tuple of node ids, in lexicographic order.  Otherwise it walks the link
    of one node r per orbit O of the rotation: the face {r}, settled first,
    with every neighbour of r a candidate.  The rotation maps the link of r
    onto that of each node of O, so by double counting k*f_k is the sum of
    |O| times the k-faces through r, the facets of each size are counted
    alike, and (rank - 1) times the ridges with c compatible nodes is the
    sum of |O| times those through r.  Rank 1 has the empty ridge only."""
    neighbours = [row & ~(1 << v) for v, row in enumerate(g.adjacency)]
    size, rank = len(g.nodes), g.rs.n
    fv = [1]
    sizes = [0] * (size + 1)
    ridges = [0] * (size + 1)
    face: List[int] = []

    def visit(above: int, common: int, depth: int) -> None:
        # ``depth`` is the size of the faces settled here, one above ``face``.
        if depth == len(fv):
            fv.append(0)
        fv[depth] += above.bit_count()
        ridge = depth == rank - 1
        while above:
            low = above & -above
            above ^= low
            v = low.bit_length() - 1
            near = neighbours[v]
            inner = common & near
            if ridge:
                ridges[inner.bit_count()] += 1
            if not inner:
                sizes[depth] += 1
                if facets is not None:
                    facets.append((*face, v))
            elif higher := above & near:
                face.append(v)
                visit(higher, inner, depth + 1)
                face.pop()

    orbits = _orbits(g) if facets is None and size else None
    if orbits is None:
        if rank == 1:
            ridges[size] += 1
        if not size:
            sizes[0] += 1
            if facets is not None:
                facets.append(())
        else:
            everything = (1 << size) - 1
            visit(everything, everything, 1)
        return FaceWalk(fv, {k: c for k, c in enumerate(sizes) if c},
                        {k: c for k, c in enumerate(ridges) if c})

    totals: Tuple[List[int], ...] = ([], [0] * (size + 1), [0] * (size + 1))
    for r, weight in orbits:
        fv[:] = [1, 1]
        sizes[:] = ridges[:] = [0] * (size + 1)
        near = neighbours[r]
        if rank == 2:
            ridges[near.bit_count()] += 1
        if near:
            visit(near, near, 2)
        else:
            sizes[1] += 1
        for total, counts in zip(totals, (fv, sizes, ridges)):
            total.extend([0] * (len(counts) - len(total)))
            for k, c in enumerate(counts):
                total[k] += weight * c
    fv_total, sizes_total, ridges_total = totals
    return FaceWalk([1] + [_share(c, k) for k, c in enumerate(fv_total) if k],
                    {k: _share(c, k) for k, c in enumerate(sizes_total) if c},
                    {k: _share(c, rank - 1) for k, c in enumerate(ridges_total) if c}
                    if rank > 1 else {size: 1})


def _share(total: int, members: int) -> int:
    """``total`` counted once through each of a face's ``members`` nodes,
    as a count of faces."""
    count, remainder = divmod(total, members)
    if remainder:
        raise RuntimeError(f"orbit-weighted count {total} is not a multiple of {members} (bug)")
    return count


def enumerate_facets(g: CompatibilityGraph) -> List[TiltingSet]:
    """All maximal cliques, lexicographically ordered by node index, each
    the tuple that ``walk_faces`` emits wrapped as it is."""
    facets: List[Tuple[int, ...]] = []
    walk_faces(g, facets)
    return [TiltingSet(f) for f in facets]


def verify_facet_sizes(facets: Sequence[TiltingSet], n: int) -> Report:
    failures = [f for f in facets if len(f.indices) != n]
    return Report(not failures, len(facets), failures)


def complements(g: CompatibilityGraph, t: Sequence[int]) -> List[int]:
    """Node indices x outside an almost-complete set t such that t+{x} is
    a facet (pairwise compatible and maximal), by a scan of the graph.
    ``verify_complement_counts`` counts the same completions from the
    facet list instead."""
    rows, tmask = g.adjacency, sum(1 << a for a in set(t))
    if tmask.bit_count() != g.rs.n - 1:
        raise ValueError(f"almost-complete set must have {g.rs.n - 1} members")
    if any(rows[a] & tmask != tmask for a in t):
        raise ValueError("input set is not pairwise compatible")
    out = []
    for x, row in enumerate(rows):
        if tmask >> x & 1 or row & tmask != tmask:
            continue
        clique = tmask | 1 << x
        if not any(r & clique == clique for u, r in enumerate(rows) if not clique >> u & 1):
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
    return Report(not failures, len(counts), failures)


def f_vector(g: CompatibilityGraph) -> List[int]:
    """Face counts by cardinality, the empty face first: ``walk_faces``
    without a facet list, so one link walk per orbit of the graph's
    rotation when that is an automorphism."""
    return walk_faces(g).f_vector


def verify_parabolic_restriction(rs: RootSystem, m: int, keep: Sequence[int],
                                 oracle: str = "combinatorial") -> Report:
    """Compatibility of pairs supported on ``keep`` must agree between the
    graph of the full system and that of the parabolic subsystem, both
    under ``oracle``."""
    kept = sorted(set(keep))
    return _restriction_report(build_graph(rs, m, oracle),
                               build_graph(parabolic(rs, kept), m, oracle), kept)


def _restriction_report(g: CompatibilityGraph, g_sub: CompatibilityGraph,
                        kept: List[int]) -> Report:
    """Compare ``g`` on the pairs supported on ``kept`` with ``g_sub``, the
    graph of the parabolic subsystem on ``kept`` under the same oracle.
    Each subsystem node lifts to the node of ``g`` with its coordinates at
    ``kept``; pairs run in ``g``'s order, a failure is ``(x, y, full, restricted)``."""
    full_id = {x: k for k, x in enumerate(g.nodes)}
    supported = []
    for s, x in enumerate(g_sub.nodes):
        root = [0] * g.rs.n
        for v, c in zip(kept, x.root):
            root[v] = c
        supported.append((full_id[ColouredRoot(tuple(root), x.colour)], s))
    supported.sort()
    failures = []
    for a, (fx, sx) in enumerate(supported):
        row, sub_row = g.adjacency[fx], g_sub.adjacency[sx]
        for fy, sy in supported[a:]:
            full, restricted = bool(row >> fy & 1), bool(sub_row >> sy & 1)
            if full != restricted:
                failures.append((g.nodes[fx], g.nodes[fy], full, restricted))
    checked = len(supported) * (len(supported) + 1) // 2
    return Report(not failures, checked, failures)


def verify_vertex_deletions(graphs: Sequence[CompatibilityGraph]) -> List[Report]:
    """``verify_parabolic_restriction`` for each single-vertex deletion
    (none in rank 1) under the oracle of every graph given, all of one
    system and one ``m``.  Each subsystem is built once and shared by the
    oracles' graphs of it.  One report per deleted vertex: it passes only
    if it passes under every oracle, and counts the supported pairs once."""
    rs, m = graphs[0].rs, graphs[0].m
    reports = []
    for drop in range(rs.n if rs.n > 1 else 0):
        keep = [v for v in range(rs.n) if v != drop]
        sub = parabolic(rs, keep)
        reps = [_restriction_report(h, build_graph(sub, m, h.oracle_tag), keep) for h in graphs]
        reports.append(Report(all(r.passed for r in reps), reps[0].checked,
                              [f for r in reps for f in r.failures]))
    return reports


def complex_to_json(rs: RootSystem, m: int, oracle: str,
                    include_verification: bool = True) -> dict:
    """The complex as ``mcluster enumerate`` writes it.  Under
    ``oracle="both"`` the facets and f-vector come from the combinatorial
    graph, ``oracles_agree`` records whether the two graphs are equal, and
    theorem 4 passes only if it passes under both oracles."""
    oracles = ORACLES if oracle == "both" else (oracle,)
    graphs = [build_graph(rs, m, o) for o in oracles]
    g = graphs[0]
    facets: List[Tuple[int, ...]] = []
    walk = walk_faces(g, facets)
    data = {
        "type": str(rs.type) if rs.type else None,
        "rank": rs.n,
        "m": m,
        "oracle": oracle,
        "nodes": [coloured_to_json(x) for x in g.nodes],
        "facets": facets,
        "f_vector": walk.f_vector,
    }
    if include_verification:
        data["verification"] = {
            "theorem2": "pass" if walk.theorem2(rs.n) else "fail",
            "theorem3": "pass" if walk.theorem3(m) else "fail",
            "theorem4": [{"dropped_vertex": drop + 1,
                          "result": "pass" if rep.passed else "fail",
                          "pairs": rep.checked}
                         for drop, rep in enumerate(verify_vertex_deletions(graphs))],
        }
    if oracle == "both":
        data["oracles_agree"] = graphs[0].adjacency == graphs[1].adjacency
    return data
