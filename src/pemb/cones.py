"""Mapping cones as algebras.

The cone R + sX of a module map f: X -> R carries the semi-trivial
product

    r . r'   = rr'
    r . sx'  = (-1)^|r| s(r.x')
    sx . r'  = (-1)^(|x||r'|) s(r'.x)
    sx . sx' = 0

which is always graded commutative and associative but satisfies the
Leibniz rule only under degree bounds; failures are reported with a
concrete witness pair rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (AlgebraError, Cdga, CdgaMorphism, quotient_cdga,
                      quotient_complex)
from .checks import check_cdga
from .graded import (GradedLinearMap, cohomology, quasi_isomorphism_failure,
                     rewindow)
from .linalg import is_zero_vec, unit_vec
from .modules import DgModule, module_mapping_cone


class ConeError(ValueError):
    pass


@dataclass
class LeibnizReport:
    ok: bool
    witness: tuple = None          # ((deg1, idx1, label1), (deg2, idx2, label2))
    defect: tuple = None           # vector in degree deg1 + deg2 + 1
    defect_degree: int = None

    def __str__(self):
        if self.ok:
            return "Leibniz: pass"
        (d1, i1, l1), (d2, i2, l2) = self.witness
        return ("Leibniz: fail on (%s, %s) with defect of degree %d"
                % (l1, l2, self.defect_degree))


@dataclass
class ShiftBounds:
    """Values k with sX concentrated in degrees >= k and the cone
    concentrated in degrees <= 2k; any such k certifies the CDGA axioms."""

    lo: int = None
    hi: int = None                 # None with lo set means unbounded above

    @property
    def found(self):
        if self.lo is None:
            return False
        return self.hi is None or self.lo <= self.hi

    def values(self, cap=3):
        if not self.found:
            return []
        hi = self.lo + cap - 1 if self.hi is None else self.hi
        return list(range(self.lo, hi + 1))


class MappingConeAlgebra:
    """Cone of f: X -> R with the semi-trivial product.

    Always a commutative graded algebra; .leibniz records whether the
    differential is a derivation, and to_cdga() refuses when it is not.
    """

    def __init__(self, f):
        X = f.source
        R = f.target.algebra
        if f.target.space != R.space:
            raise ConeError("attaching map must land in the base algebra")
        self.base = R
        self.module = X
        self.attaching = f
        self.field = R.field
        cone_mod, split = module_mapping_cone(f)
        self.split = split
        cx = cone_mod.complex
        lo = cx.space.window.lo
        if lo < 0 and all(d >= 0 for d in cx.space.degrees()):
            cx = rewindow(cx, 0, cx.space.window.hi)
            cone_mod = DgModule(R, cx, cone_mod.action, validate=False)
        self.cone_module = cone_mod
        self.complex = cx
        self.space = cx.space
        self.inclusion = GradedLinearMap(R.space, self.space, 0,
                                         split.inclusion.blocks)
        self.projection = GradedLinearMap(self.space, split.sx_complex.space, 0,
                                          split.projection.blocks)
        product, unit = self._build_product()
        self.algebra = Cdga(self.field, self.complex, product, unit,
                            validate=False)
        self.leibniz = leibniz_report(self.algebra)

    def _build_product(self):
        R, X, split = self.base, self.module, self.split
        field = self.field
        sp = self.space
        product = {}

        def put(d1, i1, d2, i2, vec):
            if not is_zero_vec(vec):
                product[(d1, i1, d2, i2)] = tuple(vec)

        for d1 in sp.degrees():
            ny1 = split.y_dim(d1)
            for d2 in sp.degrees():
                d = d1 + d2
                if d > sp.window.hi or sp.dim(d) == 0:
                    continue
                ny2 = split.y_dim(d2)
                ny_out = split.y_dim(d)
                for i1 in range(sp.dim(d1)):
                    for i2 in range(sp.dim(d2)):
                        out = [field.zero] * sp.dim(d)
                        if i1 < ny1 and i2 < ny2:
                            w = R.mul_basis(d1, i1, d2, i2)
                            for c, val in enumerate(w):
                                out[c] = val
                        elif i1 < ny1:
                            # r . sx' = (-1)^|r| s(r . x')
                            sgn = field.sign(d1)
                            w = X.act_vec(d1, R.basis_vec(d1, i1), d2 + 1,
                                          X.basis_vec(d2 + 1, i2 - ny2))
                            for c, val in enumerate(w):
                                out[ny_out + c] = sgn * val
                        elif i2 < ny2:
                            # sx . r' = (-1)^(|x||r'|) s(r' . x)
                            sgn = field.sign((d1 + 1) * d2)
                            w = X.act_vec(d2, R.basis_vec(d2, i2), d1 + 1,
                                          X.basis_vec(d1 + 1, i1 - ny1))
                            for c, val in enumerate(w):
                                out[ny_out + c] = sgn * val
                        put(d1, i1, d2, i2, out)
        unit = [field.zero] * sp.dim(0)
        for c, val in enumerate(R.unit):
            unit[c] = val
        return product, tuple(unit)

    def sx_degrees(self):
        return [d for d in self.space.degrees()
                if self.space.dim(d) - self.split.y_dim(d) > 0]

    def to_cdga(self):
        """The cone as a CDGA (checked at construction) with the base
        inclusion, or an error naming the Leibniz witness."""
        if not self.leibniz.ok:
            raise ConeError("cone product is not a CDGA: %s" % self.leibniz)
        return self.algebra, CdgaMorphism(self.base, self.algebra, self.inclusion)


def semi_trivial_cone(f):
    return MappingConeAlgebra(f)


def leibniz_report(a):
    """CDGA check of a cone product.  The semi-trivial product is a
    unital commutative graded algebra by construction, so a failure of
    any other axiom raises; a failure of d(cc') = d(c)c' + (-1)^|c| c d(c')
    is reported with its first witness pair."""
    witness = check_cdga(a)
    if witness is None:
        return LeibnizReport(True)
    if witness.axiom != "Leibniz":
        raise ConeError("cone product is not a CDGA: %s" % witness)
    (d1, i1), (d2, i2) = witness.basis
    l1, l2 = witness.labels
    return LeibnizReport(False, ((d1, i1, l1), (d2, i2, l2)), witness.defect,
                         witness.degree)


def check_shift_bounds(cone):
    """Degree scan for the concentration bounds certifying the cone as a
    CDGA; returns a ShiftBounds whose .found implies Leibniz passes."""
    sx = cone.sx_degrees()
    cone_degs = [d for d in cone.space.degrees() if cone.space.dim(d)]
    hi = max(cone_degs) if cone_degs else 0
    lo = -(-hi // 2)  # smallest k with 2k >= top of the cone
    if not sx:
        return ShiftBounds(lo, None)
    return ShiftBounds(lo, min(sx))


@dataclass
class TruncationIdeal:
    spans: dict                    # degree -> list of cone vectors
    dims: dict
    acyclic: bool

    def min_degree(self):
        degs = [d for d, vs in self.spans.items() if vs]
        return min(degs) if degs else None

    def is_full_in(self, cone, d):
        from .linalg import Matrix
        vs = self.spans.get(d, [])
        n = cone.space.dim(d)
        if n == 0:
            return True
        if not vs:
            return False
        return Matrix.from_cols(cone.field, vs, n).rank() == n


def zero_ideal():
    return TruncationIdeal({}, {}, True)


def build_acyclic_truncation(cone, cut, floor=None):
    """Acyclic subDGmodule L = cone^(>= cut) + S with d: S -> (degree-cut
    cocycles) an isomorphism; requires H^(>= cut)(cone) = 0."""
    if not cone.base.is_connected():
        raise ConeError("truncation needs a connected base algebra")
    if floor is None:
        floor = cut - 2
    field = cone.field
    sp = cone.space
    coh = cohomology(cone.complex)
    for d in sp.degrees():
        if d >= cut and coh.dim(d):
            raise ConeError("connectivity hypothesis violated: "
                            "H^%d of the cone is nonzero at or above %d" % (d, cut))
    spans, dims = {}, {}
    z = cone.complex.d.block(cut).kernel_basis() if sp.dim(cut) else []
    sections = []
    for zv in z:
        w = cone.complex.d.block(cut - 1).solve(zv)
        if w is None:
            raise ConeError("internal: degree-%d cocycle is not a boundary" % cut)
        sections.append(w)
    if sections:
        if cut - 1 <= floor:
            raise ConeError("truncation floor %d conflicts with the section "
                            "degree %d" % (floor, cut - 1))
        spans[cut - 1] = sections
        dims[cut - 1] = len(sections)
    for d in sp.degrees():
        if d >= cut:
            spans[d] = [unit_vec(field, sp.dim(d), i) for i in range(sp.dim(d))]
            dims[d] = sp.dim(d)
    if spans:
        # acyclic exactly when the projection to the quotient is a quasi-isomorphism
        qcx, proj, _ = quotient_complex(cone.complex, spans)
        if quasi_isomorphism_failure(proj, coh, cohomology(qcx)) is not None:
            raise ConeError("internal: truncation subcomplex is not acyclic")
    return TruncationIdeal(spans, dims, True)


@dataclass
class TruncatedCone:
    algebra: Cdga                  # the quotient, validated as a CDGA
    projection: CdgaMorphism       # raw cone -> quotient (as algebras)
    base_map: CdgaMorphism         # base R -> quotient
    cone: MappingConeAlgebra
    ideal: TruncationIdeal


def truncated_cone(cone, ideal, k, l):
    """Quotient of the cone by a truncation ideal, certified a CDGA by
    the degree bounds: sX starts at or after k, the ideal starts above
    k - l, and the cone at or above 2k - l + 1 lies in the ideal."""
    sx = cone.sx_degrees()
    if sx and min(sx) < k:
        raise ConeError("bound violated: suspended part in degree %d < k = %d"
                        % (min(sx), k))
    mind = ideal.min_degree()
    if mind is not None and mind <= k - l:
        raise ConeError("bound violated: ideal nonzero in degree %d <= k - l = %d"
                        % (mind, k - l))
    for d in cone.space.degrees():
        if d >= 2 * k - l + 1 and not ideal.is_full_in(cone, d):
            raise ConeError("bound violated: cone degree %d >= 2k - l + 1 = %d "
                            "not contained in the ideal" % (d, 2 * k - l + 1))
    # Leibniz defects must land in the ideal; quotient_cdga then rebuilds
    # and fully validates the quotient as a CDGA.
    try:
        q, proj, _ = quotient_cdga(cone.algebra, ideal.spans)
    except AlgebraError as e:
        raise ConeError("truncation ideal rejected: %s" % e)
    base_map = CdgaMorphism(cone.base, q, proj.map.compose(cone.inclusion))
    return TruncatedCone(q, proj, base_map, cone, ideal)
