"""Hom complexes of DG modules and their chain-homotopy classes.

hom^*_A(P, N) is built here on the solvers of `pemb.modules`: a basis
of each degree as the kernel of the linearity system over the slots of
that shift, and delta(f) = d f - (-1)^|f| f d written in that basis.
Its H^0 is the space of chain-homotopy classes of linear chain maps
P -> N, which the tests count against the top cohomology of P.  Only
the tests read it; the pipelines find their maps with
`solve_chain_maps`.
"""

from dataclasses import dataclass

from dense import add_maps
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace, cohomology)
from pemb.linalg import Matrix
from pemb.modules import (DgModuleMorphism, ModuleError, _glm_from_coords,
                          _linearity_rows, _slots)


def _coords_from_glm(idx, glm):
    """The coordinates {slot number: scalar} of a map; idx numbers the slots."""
    return {idx[(d, l, j)]: x for d, m in glm.blocks.items()
            for l, row in enumerate(m.rows) for j, x in row.items()}


class HomComplex:
    """hom^*_A(P, N) with basis maps per degree and the differential
    delta(f) = d f - (-1)^|f| f d, realized as an abstract complex."""

    def __init__(self, P, N):
        self.P = P
        self.N = N
        field = P.field
        lo = N.space.window.lo - P.space.window.hi
        hi = N.space.window.hi - P.space.window.lo
        self.window = DegreeWindow(lo, hi + 1)
        self.basis = {}
        self.slots = {}
        for i in range(lo, hi + 1):
            slots = _slots(P, N, i)
            self.slots[i] = slots
            if not slots:
                self.basis[i] = []
                continue
            rows = _linearity_rows(P, N, i, slots)
            if rows:
                kern = Matrix.sparse(field, rows, len(slots)).kernel_basis()
            else:
                kern = [{t: field.one} for t in range(len(slots))]
            self.basis[i] = [_glm_from_coords(P, N, i, slots, v) for v in kern]
        dims = {i: len(b) for i, b in self.basis.items() if b}
        space = GradedVectorSpace(field, self.window, dims,
                                  {i: ["f%d_%d" % (i, t) for t in range(n)]
                                   for i, n in dims.items()})
        blocks = {}
        for i in sorted(dims):
            cols = []
            for F in self.basis[i]:
                G = self._delta(F, i)
                cols.append(self.express(i + 1, G))
            blocks[i] = Matrix.from_cols(field, cols, space.dim(i + 1))
        self.complex = CochainComplex(space, GradedLinearMap(space, space, 1, blocks))

    def _delta(self, F, i):
        dn = self.N.complex.d
        dp = self.P.complex.d
        sgn = self.P.field.sign(i)
        left = GradedLinearMap(self.P.space, self.N.space, i + 1,
                               {d: dn.block(d + i) @ F.block(d)
                                for d in self.P.space.degrees()})
        right = GradedLinearMap(self.P.space, self.N.space, i + 1,
                                {d: (F.block(d + 1) @ dp.block(d)).scale(sgn)
                                 for d in self.P.space.degrees()})
        return left.sub(right)

    def express(self, i, G):
        """Coordinates of an A-linear map G of shift i in the hom basis."""
        field = self.P.field
        basis = self.basis.get(i, [])
        if not basis:
            if not G.is_zero():
                raise ModuleError("map does not lie in the hom complex (degree %d)" % i)
            return {}
        slots = self.slots[i]
        idx = {s: t for t, s in enumerate(slots)}
        m = Matrix.from_cols(field, [_coords_from_glm(idx, F) for F in basis],
                             len(slots))
        x = m.solve(_coords_from_glm(idx, G))
        if x is None:
            raise ModuleError("map does not lie in the hom complex (degree %d)" % i)
        return x

    def element(self, i, coords):
        out = GradedLinearMap.zero_map(self.P.space, self.N.space, i)
        for t, c in coords.items():
            out = add_maps(out, self.basis[i][t].scale(c))
        return out


@dataclass
class HomotopyClassSpace:
    P: object
    N: object
    dimension: int
    representatives: list
    chain_level_only: bool


def homotopy_classes(P, N, semifree=True):
    """H^0 of the hom complex; labeled chain-level only when the source
    is not known to be semifree.  The representatives are degree-0
    cocycles of hom, linear chain maps by construction, not re-checked."""
    hc = HomComplex(P, N)
    coh = cohomology(hc.complex)
    reps = []
    for z in coh.reps.get(0, []):
        glm = hc.element(0, z)
        reps.append(DgModuleMorphism(P, N, glm))
    return HomotopyClassSpace(P, N, coh.dim(0), reps, not semifree)
