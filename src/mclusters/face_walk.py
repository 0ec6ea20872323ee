"""The face walk: the clique complex of a graph given as ``int`` rows.

``_walk`` walks the faces depth first, in increasing node order, so the
facets come in lexicographic order, with the f-vector, the facet sizes and
the ridge histogram that ``FaceWalk`` holds.  ``_from_links`` counts a
complex from weighted walks of links of its nodes.  ``_split_walk`` is the
walk of every face that ``cluster_complex.walk_faces`` takes: where
``_can_split`` allows it (a graph of at least ``SPLIT_NODES`` nodes, two
CPUs and no other thread), it runs on two processes, this one and a child
made by ``os.fork``, each walking half of the first nodes.  The child
sends the facets of each of its first nodes as soon as it has walked it,
and this one takes the first nodes in increasing order, walking its own and
appending the child's as they come, so the facets come in the order, and
with the counts, of the walk on one process.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from itertools import chain, groupby, islice
from typing import BinaryIO, Dict, List, NoReturn, Optional, Sequence, Tuple


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


# The full walk runs on two processes from this many nodes on.  The node
# count stands in for the walk's size, unknown before it: the fork and the
# transfer cost about 4 ms, which a sparse graph of low rank and high m
# loses (A2 m=40, 122 nodes, walks in 1 ms), while the graphs of rank 6 to
# 8 timed at or above it (E6 m=3, E8 m=1, E7 m=2) walk for 0.15 s or more
# and take 35-45 % less.  Below it, E7 m=1 (70 nodes) would save 3 ms of
# 19.  CHANGES.md has the timings.
SPLIT_NODES = 100


def _can_split(size: int) -> bool:
    """Whether a full walk of ``size`` nodes runs on two processes: at or
    above ``SPLIT_NODES``, where ``os.fork`` exists, this process may run
    on at least two CPUs, and no thread but this one is running, which a
    fork would not copy.  Threads are counted by ``threading``, read only
    if something has imported it: until then, none was started by it."""
    if size < SPLIT_NODES or not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


def _split_walk(neighbours: List[int], rank: int, top: int,
                facets: Optional[List[Tuple[int, ...]]] = None) -> FaceWalk:
    """``_walk(neighbours, rank, top, facets)``, on two processes where
    ``_can_split`` allows it.  A child made by ``os.fork`` walks the first
    nodes of ``top`` with odd ids (``_child``), and this one those with
    even ids; interleaved, the shares cost about the same.  This one takes
    the first nodes in increasing order, walking an even one and reading
    an odd one off the pipe (``_receive``), so every facet is appended in
    the order of the walk on one process, and the counts of the nodes add
    up to its counts.  A top that leaves either share empty, or a pipe or
    fork that fails (EMFILE, EAGAIN), is walked here alone.

    The child is reaped on every path.  When it fails or is killed, this
    process raises RuntimeError; when this one raises, it kills the child
    first.  Either way ``facets`` is left as it was."""
    odd = top & sum(1 << v for v in range(1, len(neighbours), 2))
    if not odd or odd == top or not _can_split(len(neighbours)):
        return _walk(neighbours, rank, top, facets)
    fds: Tuple[int, ...] = ()
    try:
        fds = r, w = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare
        for fd in fds:
            os.close(fd)
        return _walk(neighbours, rank, top, facets)
    if not pid:
        os.close(r)
        _child(neighbours, rank, top, odd, facets is not None, w)
    os.close(w)
    start = 0 if facets is None else len(facets)
    walks: List[FaceWalk] = []
    status = None
    try:
        with open(r, "rb") as pipe:
            rest = top
            while rest:
                low = rest & -rest
                rest ^= low
                walk = (_receive(pipe, facets, len(neighbours)) if low & odd else
                        _walk(neighbours, rank, top, facets, low))
                if walk is None:
                    break
                walks.append(walk)
        status = os.waitpid(pid, 0)[1]
        if status or walk is None:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError("the second process of the face walk "
                               + (f"exited with status {code}" if code > 0 else
                                  f"was killed by signal {-code}" if code else "ended early"))
    except BaseException:
        if facets is not None:
            del facets[start:]
        if status is None:
            import signal  # only on this path
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return _add(walks)


def _child(neighbours: List[int], rank: int, top: int, share: int, with_facets: bool,
           fd: int) -> NoReturn:
    """The child of ``_split_walk``: it walks the first nodes of ``share``
    in increasing order, and writes each one's ``_frame`` to ``fd`` as soon
    as it has walked it.  Once the parent is gone, the next write fails
    (EPIPE) and the child stops there.  It leaves by ``os._exit``, with
    status 0 only once all is written, so that it never returns into its
    parent's code nor flushes its parent's buffers."""
    status = 1
    try:
        gc.disable()  # a collection would only copy the parent's pages: the walk makes no cycles
        facets: List[Tuple[int, ...]] = []
        with open(fd, "wb") as pipe:
            while share:
                low = share & -share
                share ^= low
                walk = _walk(neighbours, rank, top, facets if with_facets else None, low)
                pipe.write(_frame(walk, facets, len(neighbours)))
                pipe.flush()
                facets.clear()
        status = 0
    finally:
        os._exit(status)


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
