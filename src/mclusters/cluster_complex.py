"""Compatibility graph, face walks, and theorem checks.

One depth-first walk over the faces of the graph's ``int`` row per node
(``face_walk``) gives the facets in lexicographic order, the f-vector, and
the counts that theorems 2 (facet sizes) and 3 (complement counts) are
read off; all orderings are fixed so that serialized output is
byte-stable.  A walk of every face of an irreducible system's large graph
runs on two processes, with the same result.  Where no facet list is
asked for and the graph carries its oracle's rotation as an automorphism,
the walk covers one node's link per orbit, a join walked part by part,
and weights it by the orbit's size.  The facet-list checks and ``complements`` are the
references that the tests compare the walk with.  ``failed_premises``
names the premises, each one linear pass, under which the combinatorial
graph is the categorical one, on a system and on each of its vertex
deletions, and ``verify`` takes each verdict that compares the oracles
from them; the graphs of those deletions are the links of the negative
simples, so ``verify_vertex_deletions_on_rows`` also counts the faces of
the system's graph from one walk of each, and walks no face of it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .coloured_roots import (ColouredRoot, RotationTable, coloured_ground_set,
                             coloured_to_json, rotation_table)
from .face_walk import FaceWalk, _from_links, _split_walk, _walk, _walk_parts
from .orbit_category import MClusterCategory, mcluster_category
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


class Report:
    """The verdict of one check: ``checked`` cases, ``failures`` the ones
    that failed, and ``premise``, when set, a failed premise of the check.
    It passes exactly when neither is set."""

    def __init__(self, checked: int, failures: List, premise: Optional[str] = None):
        self.checked = checked
        self.failures = failures
        self.premise = premise

    @property
    def passed(self) -> bool:
        return not self.failures and self.premise is None


def _moved(row: int, perm: Sequence[int], fast: int, by: int) -> int:
    """``row`` with each bit b moved to ``perm[b]``: the bits of ``fast``,
    those with perm[b] = b + by, move in one shift, and only the others bit
    by bit.  Under R_m, which steps each colour below m to the next, most
    ids move by one."""
    image = (row & fast) << by if by > 0 else (row & fast) >> -by
    rest = row & ~fast
    while rest:
        low = rest & -rest
        rest ^= low
        image |= 1 << perm[low.bit_length() - 1]
    return image


def _rotated_rows(table: RotationTable) -> List[int]:
    """The combinatorial rows of ``table``'s nodes, rotated from n: row k is
    the row of -alpha_{lands[k]}, read off the table, moved back by R_m
    ``hit[k]`` times, one step per place of its run.  The rows are
    invariant under R_m exactly when the image of each -alpha_i row is the
    row of R_m(-alpha_i), which ``_invariant`` reads off with the rest."""
    size = len(table.nodes)
    back = [0] * size
    for k, j in enumerate(table.perm):
        back[j] = k
    down = sum(1 << b for b, c in enumerate(back) if c == b - 1)
    rows = [0] * size
    for run in table.runs:
        row = rows[run[0]] = sum(1 << b for b in range(size) if table.compatible(run[0], b))
        for k in run[1:]:
            row = rows[k] = _moved(row, back, down, -1)
    return rows


def build_graph(rs: RootSystem, m: int, oracle: str = "combinatorial") -> CompatibilityGraph:
    """The compatibility graph on ``coloured_ground_set(rs, m)``.  The
    combinatorial oracle is read off the rotation table of ``(rs, m)``, its
    n rows of the -alpha_i rotated to the rest (``_rotated_rows``); the
    categorical one is ``compatible_rows`` of every node of its m-cluster
    category: b in the row of a when every Ext^i(W(a), W(b)) vanishes,
    read off H.  Under the category's Serre duality, which
    ``shift_invariant`` checks, those rows are symmetric.  A reducible
    system is no special case: Ext between components is 0.  Each graph's
    ``rotation`` is its own oracle's: the table's ``perm``, or the
    category's ``shift_permutation``, so neither oracle reads the other."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}")
    if oracle == "combinatorial":
        table = rotation_table(rs, m)
        return CompatibilityGraph(rs, m, oracle, list(table.nodes), _rotated_rows(table),
                                  table.perm)
    nodes = coloured_ground_set(rs, m)
    cat = mcluster_category(rs, m)
    return CompatibilityGraph(rs, m, oracle, nodes, cat.compatible_rows(range(len(nodes))),
                              cat.shift_permutation())


def _invariant(g: CompatibilityGraph) -> bool:
    """Whether ``g.rotation`` is a permutation of the node ids and an
    automorphism of ``g.adjacency``: each row's image, built whole by
    ``_moved``, is the row of the image node."""
    rho, rows = g.rotation, g.adjacency
    if rho is None or sorted(rho) != list(range(len(rows))):
        return False
    step = sum(1 << b for b, c in enumerate(rho) if c == b + 1)
    return all(_moved(row, rho, step, 1) == rows[rho[a]] for a, row in enumerate(rows))


def _orbits(g: CompatibilityGraph) -> Optional[List[Tuple[int, int]]]:
    """The orbits of ``g.rotation`` as (smallest id, size) when it is an
    automorphism of ``g`` (see ``_invariant``) and ``g`` is symmetric,
    otherwise None.  Symmetry is read on the smallest id r of each orbit,
    its row against its column: the rotation carries each pair onto one
    through some r, so that covers every pair."""
    if not _invariant(g):
        return None
    rho, rows = g.rotation, g.adjacency
    orbits, seen = [], [False] * len(rho)
    for r in range(len(rho)):
        k, count = r, 0
        while not seen[k]:
            seen[k] = True
            k, count = rho[k], count + 1
        if count:
            if rows[r] != sum(1 << a for a, row in enumerate(rows) if row >> r & 1):
                return None
            orbits.append((r, count))
    return orbits


def face_bound(rs: RootSystem, m: int) -> Tuple[int, int]:
    """The Fuss-Catalan facet count F = prod (mh+e_i+1)/(e_i+1) of an
    irreducible system, and F*(m+2)^n // (m+1)^n, a bound on its faces.
    The link of a k-face is a rank-(n-k) generalized cluster complex, with
    at least (m+1)^(n-k) facets since mh+e_i+1 >= (m+1)(e_i+1); so
    f_k <= F*C(n,k)/(m+1)^(n-k), and these sum to the bound.  ``cli``
    refuses an instance past either; ``walk_faces`` decides from both
    whether a full walk runs on two processes, and a reducible system, with
    no such bound, walks on one."""
    facets, denominator = 1, 1
    for e in rs.exponents():
        facets *= m * rs.h + e + 1
        denominator *= e + 1
    facets //= denominator
    return facets, facets * (m + 2) ** rs.n // (m + 1) ** rs.n


def walk_faces(g: CompatibilityGraph, facets: Optional[List[Tuple[int, ...]]] = None,
               orbits: Optional[List[Tuple[int, int]]] = None) -> FaceWalk:
    """The counts of the faces (cliques) of ``g``.  With ``facets`` given,
    or when ``g.rotation`` is not an automorphism of ``g`` (see
    ``_orbits``), the walk covers every node and appends each facet to
    ``facets``, if given: ``_split_walk``, with the result of ``_walk``,
    which runs on two processes where the machine and the ``face_bound``
    of an irreducible system allow it, and on one for any other system.
    Otherwise it walks the link of one node per orbit O of the rotation,
    O's first negative simple if it holds one: the clique complex on its
    neighbours one rank lower, which the rotation maps onto the link of
    each node of O, so ``_from_links`` weights it by |O|.  ``_walk_parts``
    splits each link into the parts of a join, each at the rank of the
    negative simples in it, and so the graph of a reducible system: a
    component that the rotation keeps is counted from its orbits' links
    within it.  An irreducible system's graph is counted from its links
    whole, with no search for parts.  A caller that has already read
    ``_orbits(g)``, not None, passes it as ``orbits`` for a walk without a
    facet list, and it is not read again."""
    neighbours = [row & ~(1 << v) for v, row in enumerate(g.adjacency)]
    if orbits is None and facets is None and neighbours:
        orbits = _orbits(g)
    everything = (1 << len(neighbours)) - 1
    if orbits is None:
        bound = face_bound(g.rs, g.m) if g.rs.irreducible else None
        return _split_walk(neighbours, g.rs.n, everything, facets, bound)
    negatives = sum(1 << v for v, x in enumerate(g.nodes) if isinstance(x, ColouredRoot)
                    and g.rs.negative_simple_index(x.root) is not None)
    reps = []
    for r, size in orbits:
        for _ in range(size if negatives else 0):  # on to the orbit's first negative simple
            if negatives >> r & 1:
                break
            r = g.rotation[r]
        reps.append((r, size))

    def links(neighbours: List[int], rank: int, part: int) -> FaceWalk:
        # A permutation keeps the set of every node; no orbit weight counts a part it moves.
        if part != everything and _moved(part, g.rotation, 0, 0) != part:
            return _walk(neighbours, rank, part)
        return _from_links([(size, _walk_parts(neighbours, rank - 1, neighbours[r] & part, negatives))
                            for r, size in reps if part >> r & 1], rank)

    if g.rs.irreducible:
        return links(neighbours, g.rs.n, everything)
    return _walk_parts(neighbours, g.rs.n, everything, negatives, links)


def enumerate_facets(g: CompatibilityGraph) -> List[TiltingSet]:
    """All maximal cliques, lexicographically ordered by node index, each
    the tuple that ``walk_faces`` emits wrapped as it is."""
    facets: List[Tuple[int, ...]] = []
    walk_faces(g, facets)
    return [TiltingSet(f) for f in facets]


def verify_facet_sizes(facets: Sequence[TiltingSet], n: int) -> Report:
    failures = [f for f in facets if len(f.indices) != n]
    return Report(len(facets), failures)


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
    return Report(len(counts), failures)


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
    g, g_sub = build_graph(rs, m, oracle), build_graph(parabolic(rs, kept), m, oracle)
    return _restriction_report(g, g_sub, _lift(g, g_sub, kept))


def _restriction_report(g: CompatibilityGraph, g_sub: CompatibilityGraph,
                        supported: List[Tuple[int, int]]) -> Report:
    """Compare ``g`` on the pairs supported on the kept vertices with
    ``g_sub``, the graph of the parabolic subsystem on them under the same
    oracle, each subsystem node lifted as ``supported``, the ``_lift`` of
    the two graphs, gives it.  Pairs run in ``g``'s order, a failure is
    ``(x, y, full, restricted)``.  Each supported row is compared whole:
    its part at and above its own id on the lifted nodes, against the row
    of ``g_sub`` lifted by ``_moved``, and only a row that differs is
    compared pair by pair."""
    full_id = [0] * len(g_sub.nodes)
    for f, s in supported:
        full_id[s] = f
    lifted = sum(1 << f for f, _ in supported)
    failures = []
    for a, (fx, sx) in enumerate(supported):
        row, sub_row = g.adjacency[fx], g_sub.adjacency[sx]
        if not (row ^ _moved(sub_row, full_id, 0, 0)) & lifted >> fx << fx:
            continue
        for fy, sy in supported[a:]:
            full, restricted = bool(row >> fy & 1), bool(sub_row >> sy & 1)
            if full != restricted:
                failures.append((g.nodes[fx], g.nodes[fy], full, restricted))
    checked = len(supported) * (len(supported) + 1) // 2
    return Report(checked, failures)


def _lift(g: CompatibilityGraph, g_sub: CompatibilityGraph,
          kept: List[int]) -> List[Tuple[int, int]]:
    """Each node of ``g_sub``, the graph of the parabolic subsystem on
    ``kept``, as (its id in ``g``, its own id), in ``g``'s order: it lifts
    to the node of ``g`` with its coordinates at ``kept`` and 0 elsewhere."""
    full_id = {x: k for k, x in enumerate(g.nodes)}
    supported = []
    for s, x in enumerate(g_sub.nodes):
        root = [0] * g.rs.n
        for v, c in zip(kept, x.root):
            root[v] = c
        supported.append((full_id[ColouredRoot(tuple(root), x.colour)], s))
    supported.sort()
    return supported


def _deletions(rs: RootSystem) -> List[Tuple[List[int], RootSystem]]:
    """Each single-vertex deletion (none in rank 1), vertex i the i-th, as
    the kept vertices and their parabolic subsystem.  The list is kept in
    ``rs.memo``, so that every check of a system shares its subsystems and
    what each builds in its own memo."""
    keeps = [[v for v in range(rs.n) if v != drop] for drop in range(rs.n if rs.n > 1 else 0)]
    return rs.cached("deletions", lambda: [(keep, parabolic(rs, keep)) for keep in keeps])


def verify_vertex_deletions(graphs: Sequence[CompatibilityGraph]) -> List[Report]:
    """``verify_parabolic_restriction`` for each single-vertex deletion
    (none in rank 1) under the oracle of every graph given, all of one
    system and one ``m``.  Each subsystem is built once and shared by the
    oracles' graphs of it.  One report per deleted vertex: it passes only
    if it passes under every oracle, and counts the supported pairs once."""
    reports = []
    for keep, sub in _deletions(graphs[0].rs):
        reps = [_restriction_report(h, h_sub, _lift(h, h_sub, keep))
                for h in graphs for h_sub in [build_graph(sub, h.m, h.oracle_tag)]]
        reports.append(Report(reps[0].checked, [f for r in reps for f in r.failures]))
    return reports


# The premises of the n-row comparison, in the order ``failed_premises`` reads them.
SHIFT, INVARIANT, DUALITY, ROWS, DEGREE = ("shift = R_m", "R_m invariance", "H shift-invariant",
                                           "-alpha_i rows", "Ext^1 on -alpha_i pairs")


def failed_premises(g: CompatibilityGraph, invariant: Optional[bool] = None,
                    degree: bool = True) -> List[str]:
    """The names of the premises that fail on the system of the
    combinatorial graph ``g``, in order, each one linear pass, read off the
    ``rotation_table`` and the ``mcluster_category`` of ``g``'s system and
    ``m``, both kept in its memo.  SHIFT: the category's shift sigma is
    R_m, the table's ``perm``, and ``g.rotation``; when it fails it is the
    only name, since the others read sigma as a permutation.  The others
    are all read, so that each caller can take the first failure among
    those it needs.  INVARIANT: ``_invariant(g)``, or ``invariant`` when
    the caller has read it.  DUALITY: H passes ``shift_invariant``, so the
    categorical graph is invariant under sigma, and Ext^i(a, b) =
    Ext^(m+1-i)(b, a).  ROWS: each -alpha_i row of ``g`` is the one
    ``compatible_rows`` reads off H.  DEGREE, at m = 1 unless ``degree`` is
    False: ``_ext1_is_degree``.  Under the first four, ``g`` is the
    categorical graph: every orbit of R_m holds a negative simple
    (``RotationTable`` raises otherwise), so each pair rotates onto a pair
    in a -alpha_i row, where the graphs agree."""
    table, cat = rotation_table(g.rs, g.m), mcluster_category(g.rs, g.m)
    if not cat.shift_permutation() == table.perm == g.rotation:
        return [SHIFT]
    negatives = [run[0] for run in table.runs]
    holds = {INVARIANT: _invariant(g) if invariant is None else invariant,
             DUALITY: cat.shift_invariant(),
             ROWS: [g.adjacency[r] for r in negatives] == cat.compatible_rows(negatives),
             DEGREE: not degree or cat.m > 1 or _ext1_is_degree(cat, table)}
    return [name for name, ok in holds.items() if not ok]


def _ext1_is_degree(cat: MClusterCategory, table: RotationTable) -> bool:
    """Ext^1 = degree on the pairs that hold a -alpha_i, in both orders,
    with Ext^1(a, b) = H(a, sigma b).  Under ``SHIFT`` and ``DUALITY``
    Ext^1 is invariant under R_m, and the degree reads a pair at its
    landing time, so rotating each pair until one of its nodes lands
    settles every pair."""
    H, sigma = cat.hom_entries(), cat.shift_permutation()
    return all(H[a].get(sigma[b], 0) == table.degree(a, b)
               and H[b].get(sigma[a], 0) == table.degree(b, a)
               for a in (run[0] for run in table.runs) for b in range(len(sigma)))


def verify_vertex_deletions_on_rows(
        g: CompatibilityGraph, invariant: bool) -> Tuple[List[Report], Optional[FaceWalk]]:
    """``verify_vertex_deletions([g, g_cat])`` and ``walk_faces(g)`` for a
    combinatorial graph ``g``, g_cat the categorical graph of its system,
    read off the graphs g_i of the subsystems, with no categorical graph
    built and no face of ``g`` walked.  Each report is g_i's combinatorial
    one, failed with the first of its ``failed_premises`` as ``premise``
    when one fails.  With none failing g_i is its categorical graph, so,
    once the system's premises make ``g`` g_cat, the restriction holds
    under one oracle exactly when it holds under the other.

    The link of -alpha_i is the complex of the deletion of vertex i
    (Fomin-Reading, math/0505085).  Here it is g_i when the row of
    -alpha_i, less its own bit, is exactly the set of nodes that g_i's
    nodes lift to, and the restriction report of g_i passes (``_deletion``).
    Each node of run i of the rotation table is R_m^-t(-alpha_i), so when
    R_m is an automorphism of ``g``, as ``invariant`` says (``_invariant``,
    read by the caller), its link is isomorphic to that of -alpha_i, and
    ``_from_links`` counts the faces of ``g`` from one ``walk_faces(g_i)``
    per subsystem, weighted by the run's length: combinatorial facts
    alone.  The runs partition the ids, so an orbit that holds two negative
    simples needs no fractional weight.  The walk is None in rank 1 and
    when a link fails.  The deletions are checked in order."""
    table = rotation_table(g.rs, g.m)
    walking = invariant  # while R_m is an automorphism and every link so far holds
    reports, links = [], []
    for (keep, sub), run in zip(_deletions(g.rs), table.runs):
        report, link, counts = _deletion(g, keep, sub, run, walking)
        reports.append(report)
        links.append((len(run), counts))
        walking = walking and link
    return reports, _from_links(links, g.rs.n) if walking and links else None


def _deletion(g: CompatibilityGraph, keep: List[int], sub: RootSystem, run: Tuple[int, ...],
              walk: bool) -> Tuple[Report, bool, Optional[FaceWalk]]:
    """The checks of one vertex deletion of ``g``'s system, the subsystem
    ``sub`` on ``keep``, whose -alpha_i begins ``run`` of the rotation
    table: the restriction report of its graph g_i, failed with the first
    of g_i's ``failed_premises`` as ``premise``; whether g_i is the link of
    -alpha_i; and, if it is and ``walk`` is set, ``walk_faces(g_i)``.  g_i
    is lifted once, for its report and the link test, and its orbits are
    read once, for its walk and its premise INVARIANT."""
    g_sub = build_graph(sub, g.m)
    orbits = _orbits(g_sub)
    supported = _lift(g, g_sub, keep)
    report = _restriction_report(g, g_sub, supported)
    neg = run[0]
    link = (orbits is not None and report.passed
            and g.adjacency[neg] & ~(1 << neg) == sum(1 << f for f, _ in supported))
    counts = walk_faces(g_sub, orbits=orbits) if link and walk else None
    failed = failed_premises(g_sub, orbits is not None, degree=False)
    if failed:
        report.premise = failed[0]
    return report, link, counts


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
