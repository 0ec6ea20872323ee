"""The face walk: the clique complex of a graph given as ``int`` rows.

``_walk`` walks the faces depth first, in increasing node order, so the
facets come in lexicographic order, with the f-vector, the facet sizes and
the ridge histogram that ``FaceWalk`` holds.  ``_from_links`` counts a
complex from weighted walks of links of its nodes, and ``_walk_parts``
counts a graph or a link that is a join part by part (``_parts``, ``_join``).
``_split_walk``, the walk of every face that ``cluster_complex.walk_faces``
takes, runs on two processes where ``_can_split`` allows it, which is for a
complex with a large face bound (an irreducible system's) only, with the
facets, their order and the counts of the walk on one.  ``_fork``, which
only ``_split_walk`` calls, is the one place a second process is made, and
the one wire format between the two: each value the child sends crosses
the pipe as one length-prefixed ``marshal`` frame.
"""

from __future__ import annotations

import gc
import marshal
import os
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


class FaceWalk:
    """What ``walk_faces`` counts: faces of each size (the f-vector),
    facets of each size, and a histogram of the number of nodes compatible
    with each face one smaller than the rank (a ridge; the empty face in
    rank 1).  The counts are exact however they were produced: a walk of
    every face, link walks weighted by orbit (``_from_links``), a join of
    parts (``_join``), or, in ``verify_vertex_deletions_on_rows``, the
    walks of the vertex deletions' graphs, the negative simples' links."""

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


def _walk(neighbours: List[int], rank: int, top: int,
          facets: Optional[List[Tuple[int, ...]]] = None, first: Optional[int] = None) -> FaceWalk:
    """A depth-first walk, in increasing node order, over the faces of the
    clique complex of ``rank`` on the nodes of ``top``, each node's
    ``neighbours`` a bitset without itself.  Each face carries ``above``,
    its candidates above its largest node, and ``common``, every candidate
    compatible with the whole face; a face is a facet exactly when
    ``common`` is 0.  A face is settled in its parent's loop: its ridge
    count, and whether it is a facet, are read there, and the walk calls
    into it only when it has candidates above.  The top-level loop settles
    each first node v by a ``visit`` of v alone, then walks into v with
    the nodes of ``top`` above v as its candidates.  Each facet is appended
    to ``facets``, if given, as a tuple of node ids, in lexicographic order.

    ``first``, a mask of nodes of ``top`` (default: all of them), is the
    share of the first nodes that this walk settles: it covers the faces
    whose smallest node is in ``first``, and the empty face (the ridge in
    rank 1, a facet when ``top`` is 0) when ``first`` holds the smallest
    node of ``top``.  So the counts of the walks of disjoint shares add up
    to those of the whole walk, and the facets of each share come grouped
    by first node."""
    first = top if first is None else first
    lowest = top & -top
    empty = first & lowest == lowest
    fv = [1 if empty else 0]
    sizes = [0] * (len(neighbours) + 1)
    ridges = [0] * (len(neighbours) + 1)
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

    if empty and rank == 1:
        ridges[top.bit_count()] += 1
    if not top:
        sizes[0] += 1
        if facets is not None:
            facets.append(())
    while first:
        low = first & -first
        first ^= low
        visit(low, top, 1)
        v = low.bit_length() - 1
        near = neighbours[v]
        if higher := near & top & -(low << 1):
            face.append(v)
            visit(higher, near & top, 2)
            face.pop()
    return FaceWalk(fv, {k: c for k, c in enumerate(sizes) if c},
                    {k: c for k, c in enumerate(ridges) if c})


def _parts(neighbours: List[int], top: int) -> List[int]:
    """The components of the complement graph on ``top``, as masks, in one
    breadth-first pass.  Nodes of different parts are compatible, so the
    clique complex on ``top`` is the join of those on its parts."""
    parts = []
    while top:
        part = frontier = top & -top
        while frontier:
            low = frontier & -frontier
            new = top & ~neighbours[low.bit_length() - 1] & ~part
            part, frontier = part | new, frontier ^ low | new
        parts.append(part)
        top ^= part
    return parts


def _product(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """Two counts by face size convolved, as the faces of a join are."""
    out: Counter = Counter()
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] += x * y
    return dict(sorted(out.items()))


def _join(walks: Sequence[Tuple[FaceWalk, int]]) -> FaceWalk:
    """The counts of the join of complexes, each ``(walk, rank)`` one with
    no face above its rank.  The f-vectors and facet sizes convolve.  A
    ridge is a ridge of one part joined with a top face of each other
    part, which no node of that part is compatible with, so ridges[c] is
    the sum over parts p of ridges_p[c] times the other parts' top faces."""
    fv, sizes, ridges, tops = {0: 1}, {0: 1}, Counter(), 1
    for walk, rank in walks:
        fv = _product(fv, dict(enumerate(walk.f_vector)))
        sizes = _product(sizes, walk.facet_sizes)
        top = walk.f_vector[rank] if rank < len(walk.f_vector) else 0
        ridges = (Counter({c: count * top for c, count in ridges.items()})
                  + Counter({c: count * tops for c, count in walk.ridges.items()}))
        tops *= top
    return FaceWalk(list(fv.values()), sizes, dict(sorted(ridges.items())))


def _walk_parts(neighbours: List[int], rank: int, top: int, negatives: int,
                walk: Callable[[List[int], int, int], FaceWalk] = _walk) -> FaceWalk:
    """The counts of ``walk(neighbours, rank, top)``, read as a join, as a
    reducible system's complex and a negative simple's link are one
    (Fomin-Reading, math/0505085): ``_join`` of a ``walk`` of each of its
    ``_parts`` at the rank of the ``negatives`` in it.  Below rank 2, or
    where the ranks do not sum to ``rank`` or a part has a face above its
    rank, ``top`` is counted whole: a wrong hint costs time, never a count."""
    parts = _parts(neighbours, top) if rank >= 2 else [top]
    ranks = [(part & negatives).bit_count() for part in parts]
    if len(parts) > 1 and sum(ranks) == rank:
        walks = [(walk(neighbours, k, part), k) for part, k in zip(parts, ranks)]
        if all(len(counts.f_vector) <= k + 1 for counts, k in walks):
            return _join(walks)
    return walk(neighbours, rank, top)


# The full walk of a complex whose face bound (``cluster_complex.face_bound``:
# F facets, at most B faces) is known runs on two processes when B - F, a
# bound on its faces that are not facets, is at least SPLIT_FACES and at
# least F.  The fork costs about 4 ms, and the child's facets cross a pipe,
# which costs more than walking them, so a walk must settle many faces that
# it does not send.  Timed on one process and on two (CHANGES.md), the rule
# splits E7 m=2, E8 m=1 and A8 m=2 (0.45-0.6 of the time on one) and D7 m=1
# and E7 m=1 (0.8-0.9), and keeps on one every walk under about 15 ms, rank
# 2 at any m (A2 m=40: 1 ms on one, 5 ms on two; A2 m=1000: 0.8 s, 1.2 s)
# and A3 at high m, although two now win there (A3 m=100: 1.5 s on one,
# 1.3 s on two).
SPLIT_FACES = 40_000


def _can_split(bound: Optional[Tuple[int, int]]) -> bool:
    """Whether the full walk (``_split_walk``) of a complex with the face
    bound ``bound`` (facets, faces) runs on two processes: large enough by
    ``SPLIT_FACES``, where ``os.fork`` exists, this process may run on at
    least two CPUs, and no thread but this one is running, which a fork
    would not copy.  A complex with no known bound (a reducible system's)
    is walked on one.  Threads are counted by ``threading``, read only if
    something has imported it: until then, none was started by it."""
    if bound is None or not hasattr(os, "fork"):
        return False
    facets, faces = bound
    if faces - facets < max(SPLIT_FACES, facets):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


def _split_walk(neighbours: List[int], rank: int, top: int,
                facets: Optional[List[Tuple[int, ...]]] = None,
                bound: Optional[Tuple[int, int]] = None) -> FaceWalk:
    """``_walk(neighbours, rank, top, facets)``, on two processes where
    ``_can_split`` allows it, given the complex's face ``bound``, None (a
    reducible system's complex) for a walk on this process alone.
    A child made by ``_fork`` walks the first nodes of ``top`` with odd ids,
    and this one those with even ids; interleaved, the shares cost about
    the same.  The child sends one frame per first node as soon as it has
    walked it: its f-vector, facet sizes, ridges and facets (None when no
    facet list is asked for).  This one takes the first nodes in increasing
    order, walking an even one and extending ``facets`` from the next frame
    for an odd one, so every facet is appended in the order of the walk on
    one process, and the counts of the nodes add up to its counts.  A top
    that leaves either share empty, or a pipe or fork that fails, is walked
    here alone.  When the child fails or is killed, this process raises
    RuntimeError, and when this one raises, the child is killed (``_fork``);
    either way ``facets`` is left as it was."""
    odd = top & sum(1 << v for v in range(1, len(neighbours), 2))
    if not odd or odd == top or not _can_split(bound):
        return _walk(neighbours, rank, top, facets)
    start = 0 if facets is None else len(facets)

    def child(send: Callable[[Any], None]) -> None:
        share, theirs = odd, None if facets is None else []
        while share:
            low = share & -share
            share ^= low
            walk = _walk(neighbours, rank, top, theirs, low)
            send((walk.f_vector, walk.facet_sizes, walk.ridges, theirs))
            if theirs:
                theirs.clear()

    def here(receive: Callable[[], Any]) -> FaceWalk:
        walks, rest = [], top
        while rest:
            low = rest & -rest
            rest ^= low
            if low & odd:
                *counts, theirs = receive()
                if facets is not None:
                    facets.extend(theirs)
                walks.append(FaceWalk(*counts))
            else:
                walks.append(_walk(neighbours, rank, top, facets, low))
        return _add(walks)

    try:
        walk = _fork(child, here)
    except BaseException:
        if facets is not None:
            del facets[start:]
        raise
    return _walk(neighbours, rank, top, facets) if walk is None else walk


class _EndedEarly(Exception):
    """The pipe of ``_fork`` ended before a whole frame was read."""


def _fork(child: Callable[[Callable[[Any], None]], None],
          here: Callable[[Callable[[], Any]], T]) -> Optional[T]:
    """What ``here(receive)`` returns, run on this process while a child
    made by ``os.fork`` runs ``child(send)``; or None, with no child made,
    where ``os.pipe`` or ``os.fork`` fails (EMFILE, EAGAIN), so that the
    caller does all the work here.

    ``send(value)`` writes ``value`` to a pipe as one frame: an 8-byte
    length, then ``marshal.dumps(value)``, flushed at once; so a value is
    built of what ``marshal`` takes (ints, strings, bools, None, tuples,
    lists and dicts of them), no pickle.  ``receive()`` reads the next
    frame whole, then loads it: one ``marshal.loads`` of a buffer, where
    ``marshal.load`` of the pipe would read it item by item.

    The child leaves by ``os._exit``, with status 0 only once ``child`` has
    returned, so that it never returns into its parent's code nor flushes
    its parent's buffers; a collection would only copy the parent's pages,
    so it runs with ``gc`` off.  Once the parent is gone, its next write
    fails (EPIPE) and it stops there.  The child is reaped on every path:
    when it fails, is killed or ends the pipe before a frame that ``here``
    asks for, this process raises RuntimeError, which says so of the face
    walk's second process; when ``here`` raises, the child is killed
    first, and the exception goes on."""
    fds: Tuple[int, ...] = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare
        for fd in fds:
            os.close(fd)
        return None
    if not pid:
        status = 1
        try:
            os.close(r)
            gc.disable()
            with open(w, "wb") as pipe:
                def send(value: Any) -> None:
                    data = marshal.dumps(value)
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
                    pipe.flush()

                child(send)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    status, ended = None, False
    try:
        with open(r, "rb") as pipe:
            def receive() -> Any:
                head = pipe.read(8)
                size = int.from_bytes(head, "little")
                if len(head) == 8 and len(data := pipe.read(size)) == size:
                    return marshal.loads(data)
                raise _EndedEarly

            try:
                result = here(receive)
            except _EndedEarly:
                ended = True
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        if status is None:
            import signal  # only on this path
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if status or ended:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError("the second process of the face walk "
                           + (f"exited with status {code}" if code > 0 else
                              f"was killed by signal {-code}" if code else "ended early"))
    return result


def _add(walks: Sequence[FaceWalk]) -> FaceWalk:
    """The counts of walks of disjoint sets of faces, added up."""
    fv: List[int] = []
    sizes, ridges = Counter(), Counter()
    for walk in walks:
        fv.extend([0] * (len(walk.f_vector) - len(fv)))
        for k, c in enumerate(walk.f_vector):
            fv[k] += c
        sizes.update(walk.facet_sizes)
        ridges.update(walk.ridges)
    return FaceWalk(fv, dict(sorted(sizes.items())), dict(sorted(ridges.items())))


def _from_links(links: Sequence[Tuple[int, FaceWalk]], rank: int) -> FaceWalk:
    """The counts of a graph of ``rank`` from the links of its nodes: each
    ``(weight, walk)`` stands for ``weight`` nodes whose links have
    ``walk``'s counts, and every node is in exactly one.  A k-face, less
    one of its k nodes, is a (k-1)-face of that node's link, a facet of the
    link exactly when the k-face is a facet, and a ridge with c compatible
    nodes is one of each of its rank - 1 nodes' links, so by double
    counting each weighted total divides by its face size.  Rank 1 has the
    empty ridge only, in no link; the weights count its compatible nodes."""
    fv, sizes, ridges = [1], Counter(), Counter()
    for weight, walk in links:
        fv.extend([0] * (len(walk.f_vector) + 1 - len(fv)))
        for k, c in enumerate(walk.f_vector, start=1):
            fv[k] += weight * c
        for k, c in walk.facet_sizes.items():
            sizes[k + 1] += weight * c
        for c, count in walk.ridges.items():
            ridges[c] += weight * count
    return FaceWalk([1] + [_share(c, k) for k, c in enumerate(fv) if k],
                    {k: _share(c, k) for k, c in sorted(sizes.items())},
                    {c: _share(t, rank - 1) for c, t in sorted(ridges.items())}
                    if rank > 1 else {sum(weight for weight, _ in links): 1})


def _share(total: int, members: int) -> int:
    """``total`` counted once through each of a face's ``members`` nodes,
    as a count of faces."""
    count, remainder = divmod(total, members)
    if remainder:
        raise RuntimeError(f"link-weighted count {total} is not a multiple of {members} (bug)")
    return count
