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
from typing import Callable, Dict, Iterator, List, Tuple

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
        return 0 <= obj.shift <= self.m - 1 or obj.shift == -1 and obj.beta in self.D._inj_index

    def W_inverse(self, obj: DerivedObject) -> ColouredRoot:
        if not self._in_image(obj):
            raise ValueError(f"{obj} is not in the image of W")
        if obj.shift == -1:
            return ColouredRoot(self.rs.negative_simple(self.D._inj_index[obj.beta]), 1)
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
        G^-1 X and X each read W's image at two shifts off one matrix E."""
        return self.rs.cached(("hom", self.m), self._build_hom_entries)

    def _build_hom_entries(self) -> List[Dict[int, int]]:
        rid = {beta: k for k, beta in enumerate(self.rs.positive_roots)}
        E = self.D.euler_matrix()
        objs = self.objects()
        at_shift: Dict[int, List[Tuple[int, int]]] = {}
        for c, Z in enumerate(objs):
            at_shift.setdefault(Z.shift, []).append((c, rid[Z.beta]))
        H = []
        for X in objs:
            row: Dict[int, int] = {}
            for o in (self.G_inverse(X), X):
                e = E[rid[o.beta]]
                for u, sign in ((o.shift, 1), (o.shift + 1, -1)):
                    for c, d in at_shift.get(u, ()):
                        if sign * e[d] > 0:
                            row[c] = row.get(c, 0) + sign * e[d]
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
        objs = self.objects()
        index = {obj: k for k, obj in enumerate(objs)}
        return tuple(index.get(self._land(shift(obj, 1)), -1) for obj in objs)

    def ext_by_id(self) -> Callable[[int, int, int], int]:
        """Ext^i(W(a), W(b)) as a function of ``(i, a, b)``, ``i`` in 1..m.
        Ext^i(X, Y) = Hom(X, Y[i]), and Y[i] lies in the orbit of
        W(sigma^i(b)) for Y = W(b), so it is H(a, sigma^i(b)), read off the
        powers sigma^0..sigma^m, which live as long as the function.  A node
        that lands outside W's image is -1 in sigma, and stays -1 in every
        later power, since ``step`` reads index -1 as -1; no row of H holds
        it."""
        H, sigma = self.hom_entries(), self.shift_permutation()
        step = sigma + (-1,)
        powers = [tuple(range(len(sigma)))]
        while len(powers) <= self.m:
            powers.append(tuple(step[b] for b in powers[-1]))
        return lambda i, a, b: H[a].get(powers[i][b], 0)

    def ext_instances(self) -> Iterator[Tuple[int, int, int, int]]:
        """Every nonzero Ext^i(W(a), W(b)) as ``(i, a, b, value)``: each
        stored H(a, c) is Ext^i(a, b) at b = sigma^-i(c), for i = 1..m."""
        sigma = self.shift_permutation()
        inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
        for a, row in enumerate(self.hom_entries()):
            for c, value in row.items():
                for i in range(1, self.m + 1):
                    c = inverse[c]  # sigma^-i of the stored column
                    yield i, a, c, value

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


def mcluster_category(rs: RootSystem, m: int) -> MClusterCategory:
    """The m-cluster category of ``rs``, built once per ``m`` and kept in
    ``rs.memo`` so that it lives exactly as long as the root system does."""
    return rs.cached(("mcluster", m), lambda: MClusterCategory(rs, m))


def compatible_categorical(rs: RootSystem, m: int, x: ColouredRoot, y: ColouredRoot) -> bool:
    return mcluster_category(rs, m).compatible(x, y)
