"""Orbit-category model: the W bijection, orbit Ext dimensions, and the
categorical compatibility oracle.

Objects are canonical derived representatives in the fundamental domain
for the automorphism G = (inverse translate) o [m], i.e. with fine degree
in [-mh+1, 2], h the Coxeter number of the object's component.  Ext^i
between orbits is the sum over p of the derived Hom spaces
Hom(G^p X, Y[i]), and for X and Y in the image of W only p in {-1, 0, 1}
can contribute:

* an object of W's image has shift in [-1, m-1], and shift -1 only for
  an injective, so Y[i] has shift in [0, 2m-1];
* Hom(A[v], B[u]) = 0 unless u - v is 0 or 1 (the algebra is hereditary);
* G raises the shift by m, or by m+1 when it passes an injective, since
  the inverse translate of I_j is P_j[1].  So G^2 X has shift >= 2m (for
  X = I_j[-1], G X = P_j[m]) and G^-2 X has shift <= -m-1 <= -2, and
  neither can map to any Y[i].

R_m becomes the shift [1]: W(R_m x) is W(x)[1] in the fundamental domain,
at most one G^-1 step away.  Below colour m, W(x)[1] is W of the next
colour; W(-alpha_i)[1] = I_i[0] has fine degree >= -h+1 >= -mh+1; at
colour m, V(beta)[m] has fine degree <= -mh, and G^-1 (shift -m, then tau)
gives tau V(beta) at shift 0, or I_j[-1] for beta = P_j, in W's image.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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

    def in_domain(self, x: DerivedObject) -> bool:
        return -self.m * self.D.coxeter_number(x.beta) + 1 <= self.D.fine_degree(x) <= 2

    def W(self, x: ColouredRoot) -> DerivedObject:
        """Coloured root beta^j -> V(beta)[j-1]; negative simple -> I_i[-1]."""
        check_coloured(self.rs, self.m, x)
        return shift(self.D.V(x.root), x.colour - 1)

    def W_inverse(self, obj: DerivedObject) -> ColouredRoot:
        if obj.shift == -1:
            i = self.D._inj_index.get(obj.beta)
            if i is None:
                raise ValueError(f"{obj} is not in the image of W")
            return ColouredRoot(self.rs.negative_simple(i), 1)
        if 0 <= obj.shift <= self.m - 1:
            return ColouredRoot(obj.beta, obj.shift + 1)
        raise ValueError(f"{obj} is not in the image of W")

    def objects(self) -> List[DerivedObject]:
        return [self.W(x) for x in coloured_ground_set(self.rs, self.m)]

    # -- orbit automorphism --------------------------------------------

    def G(self, x: DerivedObject) -> DerivedObject:
        return shift(self.D.tau_inverse(x), self.m)

    def G_inverse(self, x: DerivedObject) -> DerivedObject:
        return self.D.tau(shift(x, -self.m))

    # -- Ext dimensions -------------------------------------------------

    def _window(self, x: DerivedObject) -> Tuple[DerivedObject, DerivedObject, DerivedObject]:
        """(G^-1 x, x, G x): for x in W's image, the only powers of G whose
        image can have Hom into some y[i] (see the module docstring)."""
        return self.G_inverse(x), x, self.G(x)

    def ext(self, x: DerivedObject, y: DerivedObject, i: int) -> int:
        """dim Ext^i between the orbits of x and y, which must lie in W's
        image: the sum of Hom(G^p x, y[i]) over the window p in {-1, 0, 1}."""
        if not 1 <= i <= self.m:
            raise ValueError(f"Ext degree {i} out of range [1, {self.m}]")
        self.W_inverse(x)  # each raises ValueError outside W's image
        self.W_inverse(y)
        target = shift(y, i)
        return sum(self.D.hom(o, target) for o in self._window(x))

    def ext_entries(self) -> Dict[Tuple[int, int], Dict[int, int]]:
        """Every nonzero orbit Ext dimension by node id: ``entries[(i, a)][b]``
        is Ext^i(W(a), W(b)) for ids ``a``, ``b`` in ``coloured_ground_set``
        order, the order of ``RotationTable.nodes``; no zero is stored.

        Hom(V(g)[t], V(d)[u]) is max(E, 0) at u = t and max(-E, 0) at
        u = t + 1, E the Euler form <g, d>, and 0 at every other shift.  So
        each window object V(g)[t] reads, for degree i, only the objects of
        W's image at shift t - i and at shift t - i + 1, off one matrix E
        on positive-root ids: one window per node, built once."""
        return self.rs.cached(("ext", self.m), self._build_ext_entries)

    def _build_ext_entries(self) -> Dict[Tuple[int, int], Dict[int, int]]:
        roots = self.rs.positive_roots
        rid = {beta: k for k, beta in enumerate(roots)}
        E = self.D.euler_matrix()
        objs = self.objects()
        at_shift: Dict[int, List[Tuple[int, int]]] = {}
        for b, Y in enumerate(objs):
            at_shift.setdefault(Y.shift, []).append((b, rid[Y.beta]))
        entries: Dict[Tuple[int, int], Dict[int, int]] = {}
        for a, X in enumerate(objs):
            window = [(E[rid[o.beta]], o.shift) for o in self._window(X)]
            for i in range(1, self.m + 1):
                row: Dict[int, int] = {}
                for e, t in window:
                    for b, d in at_shift.get(t - i, ()):
                        if e[d] > 0:
                            row[b] = row.get(b, 0) + e[d]
                    for b, d in at_shift.get(t - i + 1, ()):
                        if e[d] < 0:
                            row[b] = row.get(b, 0) - e[d]
                if row:
                    entries[(i, a)] = row
        return entries

    def compatible(self, x: ColouredRoot, y: ColouredRoot) -> bool:
        X, Y = self.W(x), self.W(y)
        return all(self.ext(X, Y, i) == 0 for i in range(1, self.m + 1))

    # -- executable lemma checks ---------------------------------------

    def shift_matches_rotation(self, x: ColouredRoot) -> bool:
        """Whether W(R_m x) is W(x)[1], moved into the fundamental domain by
        one G^-1 step when it lies outside (see the module docstring)."""
        y = shift(self.W(x), 1)
        if not self.in_domain(y):
            y = self.G_inverse(y)
        return self.W(rotation_Rm(self.rs, self.m, x)) == y

    def ext_symmetry(self, x: DerivedObject, y: DerivedObject, i: int) -> bool:
        """Calabi-Yau style dimension symmetry Ext^i(X,Y) = Ext^{m+1-i}(Y,X)."""
        return self.ext(x, y, i) == self.ext(y, x, self.m + 1 - i)


def mcluster_category(rs: RootSystem, m: int) -> MClusterCategory:
    """The m-cluster category of ``rs``, built once per ``m`` and kept in
    ``rs.memo`` so that it lives exactly as long as the root system does."""
    return rs.cached(("mcluster", m), lambda: MClusterCategory(rs, m))


def compatible_categorical(rs: RootSystem, m: int, x: ColouredRoot, y: ColouredRoot) -> bool:
    return mcluster_category(rs, m).compatible(x, y)
