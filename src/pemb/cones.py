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

Checks run on what reports rest on: `.leibniz`, a full CDGA check of
the cone product made when first read, and `truncated_cone`'s check of
the quotient, of its map from the base and of the projection onto it as
a quasi-isomorphism, which certifies the truncation ideal acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import AlgebraError, Cdga, CdgaMorphism, quotient_cdga
from .checks import check_cdga
from .graded import (GradedLinearMap, cohomology, quasi_isomorphism_failure,
                     rewindow)
from .linalg import Matrix, scaled
from .modules import DgModule, module_mapping_cone


class ConeError(ValueError):
    pass


@dataclass
class LeibnizReport:
    ok: bool
    witness: tuple = None          # ((deg1, idx1, label1), (deg2, idx2, label2))
    defect: dict = None            # vector in degree deg1 + deg2 + 1
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
            cone_mod = DgModule.derived(R, cx, cone_mod.action)
        self.cone_module = cone_mod
        self.complex = cx
        self.space = cx.space
        self.inclusion = GradedLinearMap(R.space, self.space, 0,
                                         split.inclusion.blocks)
        self.projection = GradedLinearMap(self.space, split.sx_complex.space, 0,
                                          split.projection.blocks)
        product, unit = self._build_product()
        self.algebra = Cdga.derived(self.field, self.complex, product, unit)

    @cached_property
    def leibniz(self):
        return leibniz_report(self.algebra)

    def _build_product(self):
        """R's products in both orders, and its unit, where they are: R
        sits at the start of each degree; r.sx' as the cone module's
        action on the sX columns, and sx.r' = (-1)^(|sx||r'|) r'.sx by
        graded commutativity; sx.sx' = 0."""
        product = dict(self.base.both_orders)
        for (da, ia, dm, jm), v in self.cone_module.action.items():
            if jm >= self.split.y_dim(dm):
                product[(da, ia, dm, jm)] = v
                product[(dm, jm, da, ia)] = (v if (da * dm) % 2 == 0 else
                                             scaled(self.field, self.field.minus_one, v))
        return product, self.base.unit

    def sx_degrees(self):
        return [d for d in self.space.degrees()
                if self.space.dim(d) - self.split.y_dim(d) > 0]

    def to_cdga(self):
        """The cone as a CDGA, checked by its Leibniz report, with the base
        inclusion (R's own table, not re-checked), or an error naming the
        Leibniz witness."""
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

    def min_degree(self):
        degs = [d for d, vs in self.spans.items() if vs]
        return min(degs) if degs else None

    def is_full_in(self, cone, d):
        vs = self.spans.get(d, [])
        n = cone.space.dim(d)
        if n == 0:
            return True
        if not vs:
            return False
        return Matrix.from_cols(cone.field, vs, n).rank() == n


def build_acyclic_truncation(cone, cut):
    """Spans of the subDGmodule L = cone^(>= cut) + S with d: S ->
    (degree-cut cocycles) an isomorphism; requires H^(>= cut)(cone) = 0,
    which makes L acyclic.  `truncated_cone` certifies that on the
    quotient it builds."""
    if not cone.base.is_connected():
        raise ConeError("truncation needs a connected base algebra")
    one = cone.field.one
    sp = cone.space
    coh = cohomology(cone.complex)
    for d in sp.degrees():
        if d >= cut and coh.dim(d):
            raise ConeError("connectivity hypothesis violated: "
                            "H^%d of the cone is nonzero at or above %d" % (d, cut))
    spans = {}
    z = cone.complex.d.block(cut).kernel_basis() if sp.dim(cut) else []
    sections = []
    for zv in z:
        w = cone.complex.d.block(cut - 1).solve(zv)
        if w is None:
            raise ConeError("internal: degree-%d cocycle is not a boundary" % cut)
        sections.append(w)
    if sections:
        spans[cut - 1] = sections
    for d in sp.degrees():
        if d >= cut:
            spans[d] = [{i: one} for i in range(sp.dim(d))]
    return TruncationIdeal(spans)


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
    k - l, and the cone at or above 2k - l + 1 lies in the ideal.  The
    ideal is certified acyclic on the quotient: the projection onto it is
    a quasi-isomorphism."""
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
    # Leibniz defects must land in the ideal, which the check of the
    # quotient as a CDGA decides.
    try:
        q, proj = quotient_cdga(cone.algebra, ideal.spans)
        q.validate()
    except AlgebraError as e:
        raise ConeError("truncation ideal rejected: %s" % e)
    bad = quasi_isomorphism_failure(proj.map, cohomology(cone.complex),
                                    cohomology(q.complex))
    if bad is not None:
        raise ConeError("truncation ideal is not acyclic (degree %d)" % bad)
    base_map = CdgaMorphism(cone.base, q, proj.map.compose(cone.inclusion))
    base_map.validate()
    return TruncatedCone(q, proj, base_map, cone, ideal)
