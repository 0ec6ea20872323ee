"""The face walk: the clique complex of a graph given as ``int`` rows.

``_walk`` walks the faces depth first, in increasing node order, so the
facets come in lexicographic order, with the f-vector, the facet sizes and
the ridge histogram that ``FaceWalk`` holds.  ``_from_links`` counts a
complex from weighted walks of links of its nodes.  ``_split_walk`` runs a
full walk on two processes, this one and a child made by ``os.fork``, each
settling the faces of half of the first nodes: when ``_can_split`` allows
it (a graph of at least ``SPLIT_NODES`` nodes, two CPUs and no other
thread), ``cluster_complex.walk_faces`` takes it, with the same result.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from itertools import chain, groupby, islice
from typing import BinaryIO, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple


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
    """Whether a full walk of ``size`` nodes takes ``_split_walk``: at or
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
    """``_walk(neighbours, rank, top, facets)`` on two processes: this one
    walks the first nodes of ``top`` with even ids, and a child made by
    ``os.fork`` those with odd ids (``_child``), which it writes to a pipe.
    Interleaved, the shares cost about the same.  The counts of the shares
    add up, and the facets of each come in runs by first node, each in
    lexicographic order, so ``_receive`` splices the child's runs in among
    this one's in first-node order.  A top that leaves either share empty
    is walked here alone.

    The child is reaped on every path.  When it fails, is killed or stops
    because this process is gone, this one raises RuntimeError; when this
    one raises, it kills the child first.  Either way ``facets`` is left
    as it was."""
    odd = top & sum(1 << v for v in range(1, len(neighbours), 2))
    if not odd or odd == top:
        return _walk(neighbours, rank, top, facets)
    start = 0 if facets is None else len(facets)
    parent = os.getpid()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if not pid:
        os.close(r)
        _child(neighbours, rank, top, odd, facets is not None, parent, w)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as pipe:
            walks = list(_walk_share(neighbours, rank, top, top & ~odd, facets))
            ours = [(v, sum(walk.facet_sizes.values())) for v, walk in walks]
            theirs = _receive(pipe, ours, facets, start, len(neighbours))
        status = os.waitpid(pid, 0)[1]
        if status or theirs is None:
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
    return _add([walk for _, walk in walks] + [theirs])


def _walk_share(neighbours: List[int], rank: int, top: int, share: int,
                facets: Optional[List[Tuple[int, ...]]],
                parent: Optional[int] = None) -> Iterator[Tuple[int, FaceWalk]]:
    """The ``_walk`` of each first node v of ``share`` in turn, appending
    to ``facets``, if given, yielded as (v, walk).  With ``parent`` given,
    it raises RuntimeError before a first node once the parent of this
    process is no longer that one."""
    while share:
        if parent is not None and os.getppid() != parent:
            raise RuntimeError("the face walk's parent process is gone")
        low = share & -share
        share ^= low
        yield low.bit_length() - 1, _walk(neighbours, rank, top, facets, low)


def _child(neighbours: List[int], rank: int, top: int, share: int, with_facets: bool,
           parent: int, fd: int) -> NoReturn:
    """The child of ``_split_walk``: it walks ``share``, turning the facets
    of each first node into runs and node ids before the next, and writes
    them to ``fd`` after the head that ``_head`` makes of the walk.  It
    leaves by ``os._exit``, with status 0 only once all is written, so that
    it never returns into its parent's code nor flushes its parent's
    buffers."""
    status = 1
    try:
        gc.disable()  # a collection would only copy the parent's pages: the walk makes no cycles
        facets: Optional[List[Tuple[int, ...]]] = [] if with_facets else None
        walks, runs, ids = [], [], []
        for v, walk in _walk_share(neighbours, rank, top, share, facets, parent):
            walks.append(walk)
            if facets:
                runs += [(v, k, len(list(run))) for k, run in groupby(map(len, facets))]
                ids.append(_ids(facets, len(neighbours)))
                facets.clear()
        with open(fd, "wb") as pipe:
            pipe.write(_head(_add(walks), runs))
            pipe.writelines(ids)
        status = 0
    finally:
        os._exit(status)


def _head(walk: FaceWalk, runs: Sequence[Tuple[int, int, int]]) -> bytes:
    """``walk`` and ``runs`` as 8-byte ints, no pickle, for ``_receive``:
    the count of them all first, then the f-vector, the facet sizes and
    the ridges, each after its length, and the runs of facets of one first
    node and one size, as (first node, size, count), after their count."""
    head = [0, len(walk.f_vector), *walk.f_vector]
    for counts in walk.facet_sizes, walk.ridges:
        head += [len(counts), *chain.from_iterable(counts.items())]
    head += [len(runs), *chain.from_iterable(runs)]
    head[0] = len(head)
    from array import array  # only in the child: importing it costs 0.2 MB of RSS
    return array("q", head).tobytes()


def _ids(facets: Sequence[Tuple[int, ...]], size: int) -> bytes:
    """The node ids of ``facets`` in ``_id_format(size)``."""
    from array import array  # only in the child
    ids = chain.from_iterable(facets)
    return bytes(ids) if _id_format(size) == "B" else array(_id_format(size), ids).tobytes()


# The most bytes of node ids ``_receive`` reads at once.  Kept under
# malloc's initial mmap threshold (128 KiB), so that the buffers it frees
# do not raise the threshold, which would leave later buffers of that size
# on the heap and raise the peak of the JSON that follows the walk.
READ_BYTES = 1 << 16


def _receive(pipe: BinaryIO, ours: Sequence[Tuple[int, int]],
             facets: Optional[List[Tuple[int, ...]]], start: int,
             size: int) -> Optional[FaceWalk]:
    """The walk that ``_child`` wrote to ``pipe``, or None if the pipe ends
    early.  Its facets are read ``READ_BYTES`` at most at a time and
    spliced into ``facets``, if given, after ``start``, in first-node order
    among this process's there, of which ``ours`` gives each first node
    and its facet count, in order."""
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
    at, mine = start, iter(ours)
    ahead = next(mine, None)
    for v, k, count in islice(zip(numbers, numbers, numbers), next(numbers)):
        while ahead is not None and ahead[0] < v:
            at += ahead[1]
            ahead = next(mine, None)
        while count:
            part = min(count, max(1, READ_BYTES // (k * width)))
            ids = pipe.read(part * k * width)
            if len(ids) < part * k * width:
                return None
            facets[at:at] = zip(*[iter(memoryview(ids).cast(code))] * k)
            at, count = at + part, count - part
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
