"""The face walk: the clique complex of a graph given as ``int`` rows.

``_walk`` walks the faces depth first, in increasing node order, so the
facets come in lexicographic order, with the f-vector, the facet sizes and
the ridge histogram that ``FaceWalk`` holds.  ``_from_links`` counts a
complex from weighted walks of links of its nodes.  ``_split_walk`` is the
walk of every face that ``cluster_complex.walk_faces`` takes: where
``_can_split`` allows it (by its face bound, a complex with many faces
besides its facets, or else a graph of at least ``SPLIT_NODES`` nodes; two
CPUs and no other thread), it runs on two processes, this one and a child
made by ``_fork``, each walking half of the first nodes.  The child sends
the facets of each of its first nodes as soon as it has walked it, and
this one takes the first nodes in increasing order, walking its own and
appending the child's as they come, so the facets come in the order, and
with the counts, of the walk on one process.  ``_fork`` is the one way a
second process is made: ``cluster_complex.verify_vertex_deletions_on_rows``
checks a share of ``verify``'s vertex deletions in a child of it too, under
the same ``_can_split`` rule.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from itertools import chain, groupby, islice
from typing import BinaryIO, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


class FaceWalk:
    """What ``walk_faces`` counts: faces of each size (the f-vector),
    facets of each size, and a histogram of the number of nodes compatible
    with each face one smaller than the rank (a ridge; the empty face in
    rank 1).  The counts are exact whichever way they were produced: a walk
    of every face, one link walk per orbit of the graph's rotation, or, in
    ``verify_vertex_deletions_on_rows``, the walks of the vertex deletions'
    graphs, which are the links of the negative simples."""

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


# The full walk of a complex whose face bound (``cluster_complex.face_bound``:
# F facets, at most B faces) is known runs on two processes when B - F, a
# bound on its faces that are not facets, is at least SPLIT_FACES and at
# least F.  The fork costs about 4 ms, and the child's facets cross a pipe,
# which costs more than walking them, so a walk must settle many faces that
# it does not send.  Timed on one process and on two (CHANGES.md), the rule
# splits E7 m=2, E8 m=1 and A8 m=2 (0.45-0.6 of the time on one) and D7 m=1
# and E7 m=1 (0.8-0.9), and keeps on one every walk under about 15 ms, rank
# 2 at any m (A2 m=40: 1 ms on one, 5 ms on two; A2 m=1000: 0.8 s, 1.2 s)
# and A3 at high m (A3 m=100: 1.4 s, 1.8 s).
SPLIT_FACES = 40_000
# Where no face bound is known (a reducible system), the node count stands
# in for the walk's size, from this many nodes on.
SPLIT_NODES = 100


def _can_split(size: int, bound: Optional[Tuple[int, int]] = None) -> bool:
    """Whether work on a graph of ``size`` nodes, whose complex has the face
    bound ``bound`` (facets, faces) if known, runs on two processes: large
    enough by ``SPLIT_FACES``, or by ``SPLIT_NODES`` without a bound, where
    ``os.fork`` exists, this process may run on at least two CPUs, and no
    thread but this one is running, which a fork would not copy.  Threads
    are counted by ``threading``, read only if something has imported it:
    until then, none was started by it.  It decides both a full walk
    (``_split_walk``) and ``verify``'s vertex deletions
    (``cluster_complex.verify_vertex_deletions_on_rows``), whose walks grow
    with the complex's as the links of its negative simples."""
    if bound is None:
        large = size >= SPLIT_NODES
    else:
        facets, faces = bound
        large = faces - facets >= max(SPLIT_FACES, facets)
    if not large or not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


def _split_walk(neighbours: List[int], rank: int, top: int,
                facets: Optional[List[Tuple[int, ...]]] = None,
                bound: Optional[Tuple[int, int]] = None) -> FaceWalk:
    """``_walk(neighbours, rank, top, facets)``, on two processes where
    ``_can_split`` allows it, given the complex's face ``bound`` if known.
    A child made by ``_fork`` walks the first nodes of ``top`` with odd ids
    (``_child``), and this one those with even ids; interleaved, the shares
    cost about the same.  This one takes the first nodes in increasing
    order, walking an even one and reading an odd one off the pipe
    (``_receive``), so every facet is appended in the order of the walk on
    one process, and the counts of the nodes add up to its counts.  A top
    that leaves either share empty, or a pipe or fork that fails, is walked
    here alone.  When the child fails or is killed, this process raises
    RuntimeError, and when this one raises, the child is killed (``_fork``);
    either way ``facets`` is left as it was."""
    odd = top & sum(1 << v for v in range(1, len(neighbours), 2))
    if not odd or odd == top or not _can_split(len(neighbours), bound):
        return _walk(neighbours, rank, top, facets)
    start = 0 if facets is None else len(facets)

    def here(pipe: BinaryIO) -> Optional[FaceWalk]:
        walks, rest = [], top
        while rest:
            low = rest & -rest
            rest ^= low
            walk = (_receive(pipe, facets, len(neighbours)) if low & odd else
                    _walk(neighbours, rank, top, facets, low))
            if walk is None:
                return None
            walks.append(walk)
        return _add(walks)

    try:
        walk = _fork(lambda pipe: _child(neighbours, rank, top, odd, facets is not None, pipe),
                     here, "the face walk")
    except BaseException:
        if facets is not None:
            del facets[start:]
        raise
    return _walk(neighbours, rank, top, facets) if walk is None else walk


def _fork(child: Callable[[BinaryIO], None], here: Callable[[BinaryIO], Optional[T]],
          name: str) -> Optional[T]:
    """What ``here`` returns, run on this process while a child made by
    ``os.fork`` runs ``child``, each given its end of one pipe, the child's
    to write; or None, with no child made, where ``os.pipe`` or
    ``os.fork`` fails (EMFILE, EAGAIN), so that the caller does all the work
    here.  ``here`` returns None when the pipe ends early.

    The child leaves by ``os._exit``, with status 0 only once ``child`` has
    returned, so that it never returns into its parent's code nor flushes
    its parent's buffers; a collection would only copy the parent's pages,
    so it runs with ``gc`` off.  Once the parent is gone, its next write
    fails (EPIPE) and it stops there.  The child is reaped on every path:
    when it fails, is killed or ends its pipe early, this process raises
    RuntimeError, which says so of ``name``'s second process; when ``here``
    raises, the child is killed first, and the exception goes on."""
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
                child(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as pipe:
            result = here(pipe)
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        if status is None:
            import signal  # only on this path
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if status or result is None:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the second process of {name} "
                           + (f"exited with status {code}" if code > 0 else
                              f"was killed by signal {-code}" if code else "ended early"))
    return result


def _child(neighbours: List[int], rank: int, top: int, share: int, with_facets: bool,
           pipe: BinaryIO) -> None:
    """The child of ``_split_walk``: it walks the first nodes of ``share``
    in increasing order, and writes each one's ``_frame`` to ``pipe`` as
    soon as it has walked it."""
    facets: List[Tuple[int, ...]] = []
    while share:
        low = share & -share
        share ^= low
        walk = _walk(neighbours, rank, top, facets if with_facets else None, low)
        pipe.write(_frame(walk, facets, len(neighbours)))
        pipe.flush()
        facets.clear()


def _frame(walk: FaceWalk, facets: Sequence[Tuple[int, ...]], size: int) -> bytes:
    """The walk of one first node, ``walk`` and its ``facets``, as bytes
    for ``_receive``, no pickle: as 8-byte ints, the count of them all
    first, then the f-vector, the facet sizes and the ridges, each after
    its length, and the runs of facets of one size, as (size, count),
    after their count; then the node ids of the facets, in
    ``_id_format(size)``."""
    runs = [(k, len(list(run))) for k, run in groupby(map(len, facets))]
    head = [0, len(walk.f_vector), *walk.f_vector]
    for counts in walk.facet_sizes, walk.ridges:
        head += [len(counts), *chain.from_iterable(counts.items())]
    head += [len(runs), *chain.from_iterable(runs)]
    head[0] = len(head)
    from array import array  # only in the child: importing it costs 0.2 MB of RSS
    ids = chain.from_iterable(facets)
    code = _id_format(size)
    return array("q", head).tobytes() + (bytes(ids) if code == "B" else array(code, ids).tobytes())


# The most bytes of node ids ``_receive`` reads at once.  Kept under
# malloc's initial mmap threshold (128 KiB), so that the buffers it frees
# do not raise the threshold, which would leave later buffers of that size
# on the heap and raise the peak of the JSON that follows the walk.
READ_BYTES = 1 << 16


def _receive(pipe: BinaryIO, facets: Optional[List[Tuple[int, ...]]],
             size: int) -> Optional[FaceWalk]:
    """The walk of one first node that ``_child`` wrote to ``pipe`` as a
    ``_frame``, or None if the pipe ends early.  Its facets are read
    ``READ_BYTES`` at most at a time and appended to ``facets``, if
    given."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    length = 8 * memoryview(head).cast("q")[0] - 8
    head = pipe.read(length)
    if len(head) < length:
        return None
    numbers = iter(memoryview(head).cast("q"))
    fv = list(islice(numbers, next(numbers)))
    sizes, ridges = (dict(islice(zip(numbers, numbers), next(numbers))) for _ in range(2))
    code = _id_format(size)
    width = memoryview(b"").cast(code).itemsize
    for k, count in islice(zip(numbers, numbers), next(numbers)):
        while count:
            part = min(count, max(1, READ_BYTES // (k * width)))
            ids = pipe.read(part * k * width)
            if len(ids) < part * k * width:
                return None
            facets.extend(zip(*[iter(memoryview(ids).cast(code))] * k))
            count -= part
    return FaceWalk(fv, sizes, ridges)


def _id_format(size: int) -> str:
    """The format of a node id among ``size`` nodes: one byte up to 256."""
    return "B" if size <= 256 else "L"


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
