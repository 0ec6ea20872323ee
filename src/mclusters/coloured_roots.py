"""Coloured almost-positive roots, rotations, and the combinatorial oracle.

The ground set for the generalized cluster complex consists of the
positive roots in ``m`` colours (1..m) together with the negative simple
roots, which always carry colour 1.  The rotation acting on this set
increments the colour of a positive root until colour ``m`` and otherwise
falls back to the deformed Coxeter rotation with colour reset to 1.

Single pairs are decided by rotating them jointly; whole graphs read the
same verdicts off a ``RotationTable``, which holds the rotation as a
permutation of node ids.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .root_system import Root, RootSystem


class ColouredRoot(NamedTuple):
    root: Root
    colour: int = 1

    def __str__(self) -> str:
        coeffs = ",".join(str(c) for c in self.root)
        return f"({coeffs})^{self.colour}"


def _check_almost_positive(rs: RootSystem, beta: Root) -> None:
    if not rs.is_almost_positive(beta):
        raise ValueError(f"{beta} is not an almost positive root")


def check_coloured(rs: RootSystem, m: int, x: ColouredRoot) -> None:
    if rs.negative_simple_index(x.root) is not None:
        if x.colour != 1:
            raise ValueError("negative simple roots have colour 1")
        return
    if not rs.is_positive_root(x.root):
        raise ValueError(f"{x.root} is not a root of the system")
    if not 1 <= x.colour <= m:
        raise ValueError(f"colour {x.colour} out of range [1, {m}]")


def _tau(rs: RootSystem, eps: int, beta: Root) -> Root:
    """``tau_eps`` on an almost positive root, unchecked."""
    neg = rs.negative_simple_index(beta)
    if neg is not None and neg in (rs.I_minus if eps == 1 else rs.I_plus):
        return beta
    return rs.reflect_part(rs.plus_order if eps == 1 else rs.minus_order, beta)


def tau_eps(rs: RootSystem, eps: int, beta: Root) -> Root:
    """Deformed half-rotation: fixes -alpha_i for i in the opposite part,
    otherwise applies the product of the simple reflections of one part
    (which commute)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    _check_almost_positive(rs, beta)
    return _tau(rs, eps, beta)


def rotation_R(rs: RootSystem, beta: Root) -> Root:
    _check_almost_positive(rs, beta)
    return _tau(rs, 1, _tau(rs, -1, beta))


def _step(rs: RootSystem, m: int, x: ColouredRoot) -> ColouredRoot:
    """``R_m`` on a member of the ground set, unchecked: the rotation maps
    the ground set to itself, so a checked start stays valid."""
    if x.colour < m and rs.is_positive_root(x.root):
        return ColouredRoot(x.root, x.colour + 1)
    return ColouredRoot(_tau(rs, 1, _tau(rs, -1, x.root)), 1)


def rotation_Rm(rs: RootSystem, m: int, x: ColouredRoot) -> ColouredRoot:
    check_coloured(rs, m, x)
    return _step(rs, m, x)


def coloured_ground_set(rs: RootSystem, m: int) -> List[ColouredRoot]:
    """Fixed node order: positive roots in closure-enumeration order with
    colours ascending, then negative simples in vertex order."""
    out = [ColouredRoot(b, c) for b in rs.positive_roots for c in range(1, m + 1)]
    out.extend(ColouredRoot(rs.negative_simple(i), 1) for i in range(rs.n))
    return out


def _rotation_cap(rs: RootSystem, m: int) -> int:
    return m * len(rs.positive_roots) + rs.n + 1


def _reading(rs: RootSystem, m: int, x: ColouredRoot, y: ColouredRoot) -> int:
    """Rotate the pair jointly by ``R_m`` until one entry is a negative
    simple -alpha_i, then read coefficient i of the other entry, or 0 if
    it is a negative simple too.  Both entries must lie in the ground
    set; the steps do not check them again."""
    for _ in range(_rotation_cap(rs, m)):
        i, other = rs.negative_simple_index(x.root), y
        if i is None:
            i, other = rs.negative_simple_index(y.root), x
        if i is not None:
            return 0 if rs.negative_simple_index(other.root) is not None else other.root[i]
        x = _step(rs, m, x)
        y = _step(rs, m, y)
    raise RuntimeError("rotation cap exceeded; no negative simple reached (bug)")


def compatibility_degree(rs: RootSystem, beta: Root, alpha: Root) -> int:
    """The joint-rotation reading of the pair at ``m = 1``, where ``R_m``
    on colour-1 roots is ``R``."""
    _check_almost_positive(rs, beta)
    _check_almost_positive(rs, alpha)
    return _reading(rs, 1, ColouredRoot(beta), ColouredRoot(alpha))


def compatible_combinatorial(rs: RootSystem, m: int, x: ColouredRoot, y: ColouredRoot) -> bool:
    """Joint-rotation compatibility test on coloured roots: the reading is 0."""
    check_coloured(rs, m, x)
    check_coloured(rs, m, y)
    return _reading(rs, m, x, y) == 0


class RotationTable:
    """The coloured ground set of ``(rs, m)`` indexed by node id (in
    ``coloured_ground_set`` order), with ``R_m`` as a permutation of ids.
    Every orbit holds a negative simple, so the ids split into ``runs``:
    ``runs[i]`` walks ``R_m`` back from -alpha_i until the previous
    negative simple.  Node ``k`` sits at place ``hit[k]``, its hitting
    time, of run ``lands[k]``, so ``R_m^t`` of it is place ``hit[k] - t``.

    The joint-rotation reading needs no reflections here: the pair lands
    at ``t = min(hit[a], hit[b])``, where the node that lands first names
    the vertex ``i`` and the other node's ``R_m^t`` image supplies
    coefficient ``i``.  No tie needs breaking: when both land together,
    both are negative simples and the reading is 0 in either order."""

    def __init__(self, rs: RootSystem, m: int):
        self.nodes: Tuple[ColouredRoot, ...] = tuple(coloured_ground_set(rs, m))
        index = {x: k for k, x in enumerate(self.nodes)}
        self.perm: Tuple[int, ...] = tuple(index[_step(rs, m, x)] for x in self.nodes)
        self.neg: Tuple[Optional[int], ...] = tuple(
            rs.negative_simple_index(x.root) for x in self.nodes)
        # Each walk back meets a negative simple, its own start at the latest,
        # or a missing key if perm is no permutation: it cannot spin.
        back = {j: k for k, j in enumerate(self.perm)}
        self.runs: List[Tuple[int, ...]] = []
        self.hit: List[int] = [-1] * len(self.nodes)
        self.lands: List[int] = [0] * len(self.nodes)
        for i in range(rs.n):
            run = [len(self.nodes) - rs.n + i]
            while self.neg[back[run[-1]]] is None:
                run.append(back[run[-1]])
            for t, k in enumerate(run):
                self.hit[k], self.lands[k] = t, i
            self.runs.append(tuple(run))
        if -1 in self.hit:
            raise RuntimeError("an R_m orbit holds no negative simple (bug)")

    def degree(self, x: int, y: int) -> int:
        """The joint-rotation reading of ``_reading`` on node ids, at every
        ``m``; at ``m = 1`` it is ``compatibility_degree``."""
        if self.hit[y] < self.hit[x]:
            x, y = y, x
        other = self.runs[self.lands[y]][self.hit[y] - self.hit[x]]
        if self.neg[other] is not None:
            return 0
        return self.nodes[other].root[self.lands[x]]

    def compatible(self, x: int, y: int) -> bool:
        """``compatible_combinatorial`` on node ids."""
        return self.degree(x, y) == 0


def rotation_table(rs: RootSystem, m: int) -> RotationTable:
    """The rotation table of ``(rs, m)``, built once and kept in
    ``rs.memo`` so that it lives exactly as long as the root system does.
    A table costs one rotation step per node, far more than rotating a
    single pair, so the per-pair functions above serve one-off questions."""
    return rs.cached(("rotation", m), lambda: RotationTable(rs, m))


def coloured_to_json(x: ColouredRoot) -> dict:
    return {"coeffs": list(x.root), "colour": x.colour}
