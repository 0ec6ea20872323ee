"""Orbit-category model: the W bijection, Hom and Ext between orbits, the
shift on node ids, and the categorical compatibility oracle.

Objects are canonical derived representatives in the fundamental domain
for the automorphism G = (inverse translate) o [m], which is W's image: the
objects at shifts 0..m-1 and the injectives at shift -1, decided by shift
alone.  Hom between orbits is the sum over p of the derived Hom spaces
Hom(G^p X, Z).  For X and Z in the image of W only p in {-1, 0} can
contribute:

* Hom(A[v], B[u]) = 0 unless u - v is 0 or 1 (the algebra is hereditary);
* G raises the shift by m, or by m+1 when it passes an injective, since
  the inverse translate of I_j is P_j[1].  So G X has shift >= m (for
  X = I_j[-1], G X = P_j[m]), above every Z; G^-2 X has shift <= -m-1,
  two below every Z but at m = 1 an injective Z = I_j[-1], and
  Hom(A[-2], I_j[-1]) = Ext^1(A, I_j) = 0.

R_m becomes the shift [1]: W(R_m x) is W(x)[1] landed in W's image, at
most one G^-1 step away.  Below colour m, W(x)[1] is W of the next
colour, and W(-alpha_i)[1] = I_i[0] is W of I_i in colour 1; at colour m,
V(beta)[m] is past W's image, and G^-1 (shift -m, then tau) gives
tau V(beta) at shift 0, or I_j[-1] for beta = P_j.  So Ext^i(X, Y) =
Hom(X, Y[i]) is the Hom into Y landed i times.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .coloured_roots import ColouredRoot, check_coloured, coloured_ground_set, rotation_Rm
from .derived import DerivedCategory, DerivedObject, derived_category, shift
from .root_system import RootSystem


class MClusterCategory:
    def __init__(self, rs: RootSystem, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.rs = rs
        self.m = m
        self.D: DerivedCategory = derived_category(rs)

    # -- fundamental domain --------------------------------------------

    def W(self, x: ColouredRoot) -> DerivedObject:
        """Coloured root beta^j -> V(beta)[j-1]; negative simple -> I_i[-1]."""
        check_coloured(self.rs, self.m, x)
        return shift(self.D.V(x.root), x.colour - 1)

    def _in_image(self, obj: DerivedObject) -> bool:
        """Whether ``obj`` is W of a coloured root, decided by its shift."""
        return 0 <= obj.shift <= self.m - 1 or obj.shift == -1 and obj.beta in self.rs.inj_index

    def W_inverse(self, obj: DerivedObject) -> ColouredRoot:
        if not self._in_image(obj):
            raise ValueError(f"{obj} is not in the image of W")
        if obj.shift == -1:
            return ColouredRoot(self.rs.negative_simple(self.rs.inj_index[obj.beta]), 1)
        return ColouredRoot(obj.beta, obj.shift + 1)

    def objects(self) -> List[DerivedObject]:
        return [self.W(x) for x in coloured_ground_set(self.rs, self.m)]

    # -- orbit automorphism --------------------------------------------

    def G_inverse(self, x: DerivedObject) -> DerivedObject:
        return self.D.tau(shift(x, -self.m))

    # -- Ext dimensions -------------------------------------------------

    def ext_dims(self, x: DerivedObject, y: DerivedObject) -> Iterator[int]:
        """dim Ext^i between the orbits of x and y for i = 1..m, lazily: Hom
        from G^-1 x and x into y landed i times, each landing checked."""
        self.W_inverse(x)  # each raises ValueError outside W's image
        self.W_inverse(y)
        window = self.G_inverse(x), x
        for _ in range(self.m):
            y = self._land(shift(y, 1))
            self.W_inverse(y)
            yield sum(self.D.hom(o, y) for o in window)

    def ext(self, x: DerivedObject, y: DerivedObject, i: int) -> int:
        """dim Ext^i between the orbits of x and y: term i of ``ext_dims``."""
        if not 1 <= i <= self.m:
            raise ValueError(f"Ext degree {i} out of range [1, {self.m}]")
        return next(itertools.islice(self.ext_dims(x, y), i - 1, None))

    def hom_entries(self) -> List[Dict[int, int]]:
        """Every nonzero Hom between orbits: ``H[a][c]`` is Hom(W(a), W(c))
        for node ids.  Hom(V(g)[t], V(d)[u]) is max(E, 0) at u = t,
        max(-E, 0) at u = t + 1 and 0 otherwise, E the Euler form <g, d>, so
        G^-1 X and X each read W's image at two shifts off one Euler row."""
        return self.rs.cached(("hom", self.m), self._build_hom_entries)

    def _build_hom_entries(self) -> List[Dict[int, int]]:
        """H off the packed rows of ``DerivedCategory.euler_rows``: for G^-1 X
        and X of each node, the row of its root is read at the nodes of its
        own shift, where a lane above the bias is a Hom, and at the nodes of
        the next shift, where a lane below it is an Ext^1.  Each colour holds
        every positive root in order, so its nodes read the row as it is;
        the injectives pick their roots' lanes."""
        rid = {beta: k for k, beta in enumerate(self.rs.positive_roots)}
        bias, E = self.D.euler_rows()
        objs, backs = self._image()
        at_shift: Dict[int, Tuple[List[int], List[int]]] = {}
        for c, Z in enumerate(objs):
            cs, ds = at_shift.setdefault(Z.shift, ([], []))
            cs.append(c)
            ds.append(rid[Z.beta])
        whole = list(range(len(rid)))
        reads = {u: (cs, None if ds == whole else ds) for u, (cs, ds) in at_shift.items()}

        def lanes(u: int, e: memoryview) -> Iterable[Tuple[int, int]]:
            # (node, lane) for each node at shift u, in node order.
            cs, ds = reads.get(u, ((), None))
            return zip(cs, e if ds is None else [e[d] for d in ds])

        H = []
        for X, back in zip(objs, backs):
            row: Dict[int, int] = {}
            for o in (back, X):
                e = E[rid[o.beta]]
                for c, v in lanes(o.shift, e):
                    if v > bias:
                        row[c] = row.get(c, 0) + v - bias
                for c, v in lanes(o.shift + 1, e):
                    if v < bias:
                        row[c] = row.get(c, 0) + bias - v
            H.append(row)
        return H

    def _land(self, y: DerivedObject) -> DerivedObject:
        """W(x)[1] in W's image, at most one G^-1 step away."""
        return y if self._in_image(y) else self.G_inverse(y)

    def shift_permutation(self) -> Tuple[int, ...]:
        """The shift [1] on node ids, read off the category alone and never
        off ``RotationTable``, so that comparing the two is a check; a node
        that lands outside W's image maps to -1."""
        return self.rs.cached(("shift", self.m), self._build_shift)

    def _build_shift(self) -> Tuple[int, ...]:
        # W(x)[1] lands at G^-1(W(x)[1]) = G^-1(W(x))[1] when it leaves W's image.
        objs, backs = self._image()
        index = {obj: k for k, obj in enumerate(objs)}
        return tuple(index.get(up if self._in_image(up := shift(obj, 1)) else shift(back, 1), -1)
                     for obj, back in zip(objs, backs))

    def _image(self) -> Tuple[List[DerivedObject], List[DerivedObject]]:
        """W's image in node order and the G^-1 step of each object, which
        both the shift and H read, so that each step is taken once."""
        def build() -> Tuple[List[DerivedObject], List[DerivedObject]]:
            objs = self.objects()
            return objs, [self.G_inverse(X) for X in objs]
        return self.rs.cached(("image", self.m), build)

    def shift_invariant(self) -> bool:
        """Whether H(sigma a, sigma c) = H(a, c) and H(a, c) =
        H(c, sigma^(m+1) a) on every stored entry of H, the shift sigma a
        permutation of the node ids (``_power`` raises otherwise).  Both
        maps of pairs are one to one, so each then maps the stored entries
        onto themselves: H is invariant under the shift, and, with Ext^i(a,
        b) = H(a, sigma^i b), Ext^i(a, b) = Ext^(m+1-i)(b, a) for every i,
        the Serre duality of an (m+1)-CY category (Keller, math/0503240)."""
        H, sigma = self.hom_entries(), self.shift_permutation()
        far = _power(sigma, self.m + 1)
        return all(H[sigma[a]].get(sigma[c]) == value and H[c].get(far[a]) == value
                   for a, row in enumerate(H) for c, value in row.items())

    def compatible_rows(self, ids: Sequence[int]) -> List[int]:
        """For each node a of ``ids``, the nodes b with Ext^i(W(a), W(b)) = 0
        for i = 1..m as a bitset: each stored H(a, c) is Ext^i(a, b) at
        b = sigma^-i(c), sigma a permutation (``_power`` raises otherwise).
        Once ``shift_invariant`` holds, Ext^i(a, b) and Ext^(m+1-i)(b, a)
        vanish together, so the rows of all nodes are the categorical graph."""
        H, back = self.hom_entries(), _power(self.shift_permutation(), -1)
        everything = (1 << len(back)) - 1
        rows = []
        for a in ids:
            ext = 0
            for c in H[a]:
                for _ in range(self.m):
                    c = back[c]
                    ext |= 1 << c
            rows.append(everything & ~ext)
        return rows

    def compatible(self, x: ColouredRoot, y: ColouredRoot) -> bool:
        return not any(self.ext_dims(self.W(x), self.W(y)))

    # -- executable lemma checks ---------------------------------------

    def shift_matches_rotation(self, x: ColouredRoot) -> bool:
        """Whether W(R_m x) is W(x)[1] in the fundamental domain: the lemma
        that ``shift_permutation`` states for every node at once."""
        return self.W(rotation_Rm(self.rs, self.m, x)) == self._land(shift(self.W(x), 1))

    def ext_symmetry(self, x: DerivedObject, y: DerivedObject, i: int) -> bool:
        """Calabi-Yau style dimension symmetry Ext^i(X,Y) = Ext^{m+1-i}(Y,X)."""
        return self.ext(x, y, i) == self.ext(y, x, self.m + 1 - i)


def _power(perm: Tuple[int, ...], k: int) -> List[int]:
    """``perm`` to the power ``k``, read off its cycles: each node steps k
    places along its own.  Raises ValueError on a ``perm`` that is not a
    permutation of its indices, such as a shift with a node off W's image."""
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("the shift is not a permutation of the node ids")
    out, seen = list(perm), [False] * len(perm)
    for r in range(len(perm)):
        cycle, a = [], r
        while not seen[a]:
            seen[a] = True
            cycle.append(a)
            a = perm[a]
        for j, a in enumerate(cycle):
            out[a] = cycle[(j + k) % len(cycle)]
    return out


def mcluster_category(rs: RootSystem, m: int) -> MClusterCategory:
    """The m-cluster category of ``rs``, built once per ``m`` and kept in
    ``rs.memo`` so that it lives exactly as long as the root system does."""
    return rs.cached(("mcluster", m), lambda: MClusterCategory(rs, m))


def compatible_categorical(rs: RootSystem, m: int, x: ColouredRoot, y: ColouredRoot) -> bool:
    return mcluster_category(rs, m).compatible(x, y)
