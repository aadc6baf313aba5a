"""Mapping cones as algebras.

The cone R + sX of a module map f: X -> R, with d(r, sx) =
(dr + f(x), -s(dx)), carries the semi-trivial product

    r . r'   = rr'
    r . sx'  = (-1)^|r| s(r.x')
    sx . r'  = (-1)^(|x||r'|) s(r'.x)
    sx . sx' = 0

(|sx| = |x| - 1), which is graded commutative by construction, and
associative and unital where R is a CDGA and X an R-module.  Where
moreover f is R-linear, the Leibniz rule holds on every pair with a
factor in R: on (r, sx) its R-part is f(r.x) = r.f(x) and its sX-part
X's Leibniz rule, and (sx, r) follows by commutativity.  On (sx, sx')
the left side is 0, and the defect lhs - rhs is

    -(f(x).sx' + (-1)^|sx| sx.f(x')) = (-1)^(|x|+1) s(beta(x, x')),
    beta(x, x') = f(x).x' - (-1)^(|x||x'|) f(x').x,

so the cone is a CDGA exactly when beta vanishes.  beta is R-bilinear
up to sign: beta(r.x, x') = r.beta(x, x') by linearity of f,
associativity of the action and commutativity of R, and beta(x, x') =
-(-1)^(|x||x'|) beta(x', x).  So beta vanishes once it vanishes on
G x G, for G a module generating set of X.  Under the shift bounds
beta lands above the top of X and there is nothing to compute: the
paper's degree argument is what the check reads.  A failure is
reported as the `checks.Witness` naming its first pair rather than
raised.

A truncation ideal is spanned by basis elements, and given as degree
-> sorted basis indices, built by `graded.truncation_spans`: everything
above a degree, and in that degree the basis elements that d maps
one-to-one onto the boundaries above it.

Checks run on what reports rest on: `.leibniz`, the cone's Leibniz
report made when first read, and `truncated_cone`'s check of the
quotient, of its map from the base and of the projection onto it as a
quasi-isomorphism, which certifies the truncation ideal acyclic.  The
Leibniz report decides the cone from its inputs: R's proof record, X's
module check on S (`checks`), f's check, linear on S, and beta on
G x G, after the index test of the cone table that `check_cdga` makes
first, so that a faulty cone builder is still named.  A cone so proven
keeps `generating_set` of its table as its proof record, so the
morphisms into it are checked on S.  Any failure falls back to
`check_cdga` on the cone table, whose witness is the exhaustive walk's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .algebra import AlgebraError, Cdga, CdgaMorphism, quotient_cdga
from .checks import (check_cdga, check_module, check_module_morphism, generating_set,
                     outside_basis)
from .graded import (GradedLinearMap, cohomology, quasi_isomorphism_failure,
                     rewindow, truncation_spans)
from .linalg import axpy
from .modules import DgModule, module_mapping_cone
from .tables import swapped


class ConeError(ValueError):
    pass


@dataclass
class ShiftBounds:
    """Values k with sX concentrated in degrees >= k and the cone
    concentrated in degrees <= 2k; any such k certifies the CDGA axioms."""

    lo: int
    hi: int = None                 # None means unbounded above

    @property
    def found(self):
        return self.hi is None or self.lo <= self.hi

    def admits(self, k):
        return self.lo <= k and (self.hi is None or k <= self.hi)


class MappingConeAlgebra:
    """Cone of f: X -> R with the semi-trivial product.

    Always a commutative graded algebra; .leibniz is None when the
    differential is a derivation and its first failure otherwise, and
    to_cdga() refuses when it is not.
    """

    def __init__(self, f):
        R = f.target.algebra
        if f.target.space != R.space:
            raise ConeError("attaching map must land in the base algebra")
        self.base = R
        self.attaching = f
        self.field = R.field
        cone_mod, split = module_mapping_cone(f)
        self.split = split
        cx = cone_mod.complex
        lo = cx.space.window.lo
        if lo < 0 and all(d >= 0 for d in cx.space.degrees()):
            cx = rewindow(cx, 0, cx.space.window.hi)
            cone_mod = DgModule(R, cx, cone_mod.action)
        self.cone_module = cone_mod
        self.complex = cx
        self.space = cx.space
        self.inclusion = GradedLinearMap(R.space, self.space, 0,
                                         split.inclusion.blocks)
        product, unit = self._build_product()
        self.algebra = Cdga(self.field, self.complex, product, unit)

    @cached_property
    def leibniz(self):
        return leibniz_report(self)

    def _build_product(self):
        """R's products in both orders, and its unit, where they are: R
        sits at the start of each degree; r.sx' as the cone module's
        action on the sX columns, each followed by sx'.r =
        (-1)^(|sx'||r|) r.sx' by graded commutativity; sx.sx' = 0."""
        y_dim = self.split.y_dim
        on_sx = {k: v for k, v in self.cone_module.action.items() if k[3] >= y_dim(k[2])}
        pairs = zip(on_sx.items(), swapped(self.field, on_sx).items())
        return {**self.base.both_orders, **dict(chain.from_iterable(pairs))}, self.base.unit

    def sx_degrees(self):
        return [d for d in self.space.degrees()
                if self.space.dim(d) - self.split.y_dim(d) > 0]

    def to_cdga(self):
        """The cone as a CDGA, checked by its Leibniz check, with the base
        inclusion (R's own table, not re-checked), or an error naming the
        Leibniz witness."""
        if self.leibniz is not None:
            raise ConeError("cone product is not a CDGA: %s" % self.leibniz)
        return self.algebra, CdgaMorphism(self.base, self.algebra, self.inclusion)


def semi_trivial_cone(f):
    return MappingConeAlgebra(f)


def leibniz_report(cone):
    """None when the cone product is a CDGA, and otherwise the witness of
    its first pair failing the Leibniz rule, d(cc') = d(c)c' +
    (-1)^|c| c d(c').  The semi-trivial product is a unital commutative
    graded algebra by construction, so a failure of any other axiom
    raises.  Proven from the cone's inputs where they pass, as the module
    docstring says, and otherwise by `check_cdga` on the cone table."""
    a = cone.algebra
    if proven_from_inputs(cone):
        a.proven_generators = generating_set(a)
        return None
    witness = check_cdga(a)
    if witness is not None and witness.axiom != "Leibniz":
        raise ConeError("cone product is not a CDGA: %s" % witness)
    return witness


def proven_from_inputs(cone):
    """Whether the cone product passes as a CDGA by the module docstring:
    its indices, R proven, X a module over R, f linear into R acting on
    itself, and beta zero on G x G."""
    f, r, a = cone.attaching, cone.base, cone.algebra
    x = f.source
    if (a.space.window.lo < 0 or r.proven_generators is None or x.algebra is not r
            or f.target.action is not r.both_orders or f.target.complex is not r.complex):
        return False
    # R's entries had their indices tested when R was proven
    base = r.both_orders
    if outside_basis(a.space, a.space, {k: v for k, v in a.product.items()
                                        if base.get(k) is not v}, "algebra basis"):
        return False
    # a module over the proven R that passes its check has a record
    if x.proven_generators is None and check_module(x) is not None:
        return False
    if check_module_morphism(f) is not None:
        return False
    gens = x.proven_generators[1]
    return not any(_beta(f, g, h) for p, g in enumerate(gens) for h in gens[p:])


def _beta(f, g, h):
    """beta(g, h) = f(g).h - (-1)^(|g||h|) f(h).g for basis elements g, h
    of X, as a vector of X."""
    x = f.source
    field, one = x.field, x.field.one
    if not x.space.dim(g[0] + h[0]):
        return {}
    out = x.act_vec(g[0], f.apply(g[0], {g[1]: one}), h[0], {h[1]: one})
    axpy(field, out, field.sign(g[0] * h[0] + 1),
         x.act_vec(h[0], f.apply(h[0], {h[1]: one}), g[0], {g[1]: one}))
    return out


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


def build_acyclic_truncation(cone, cut):
    """Basis indices of the subDGmodule L = cone^(>= cut) + S with d: S
    -> (degree-cut cocycles) an isomorphism, S spanned by basis elements
    (`truncation_spans` above cut - 1); requires H^(>= cut)(cone) = 0,
    which makes L acyclic.  `truncated_cone` certifies that on the
    quotient it builds."""
    if not cone.base.is_connected():
        raise ConeError("truncation needs a connected base algebra")
    coh = cohomology(cone.complex)
    for d in cone.space.degrees():
        if d >= cut and coh.dim(d):
            raise ConeError("connectivity hypothesis violated: "
                            "H^%d of the cone is nonzero at or above %d" % (d, cut))
    return truncation_spans(cone.complex, cut - 1)


@dataclass
class TruncatedCone:
    algebra: Cdga                  # the quotient, validated as a CDGA
    base_map: CdgaMorphism         # base R -> quotient


def truncated_cone(cone, ideal, k, l):
    """Quotient of the cone by a truncation ideal, given by its basis
    indices, certified a CDGA by the degree bounds: sX starts at or after
    k, the ideal starts above k - l, and the cone at or above 2k - l + 1
    lies in the ideal.  The ideal is certified acyclic on the quotient: the
    projection onto it is a quasi-isomorphism."""
    sx = cone.sx_degrees()
    if sx and min(sx) < k:
        raise ConeError("bound violated: suspended part in degree %d < k = %d"
                        % (min(sx), k))
    mind = min((d for d, vs in ideal.items() if vs), default=None)
    if mind is not None and mind <= k - l:
        raise ConeError("bound violated: ideal nonzero in degree %d <= k - l = %d"
                        % (mind, k - l))
    for d in cone.space.degrees():
        # degree d lies in the ideal when it lists all dim(d) indices there
        if d >= 2 * k - l + 1 and len(ideal.get(d, ())) < cone.space.dim(d):
            raise ConeError("bound violated: cone degree %d >= 2k - l + 1 = %d "
                            "not contained in the ideal" % (d, 2 * k - l + 1))
    # Leibniz defects must land in the ideal, which the check of the
    # quotient as a CDGA decides.
    try:
        q, proj = quotient_cdga(cone.algebra, ideal)
        q.validate()
    except AlgebraError as e:
        raise ConeError("truncation ideal rejected: %s" % e)
    bad = quasi_isomorphism_failure(proj.map, cohomology(cone.complex),
                                    cohomology(q.complex))
    if bad is not None:
        raise ConeError("truncation ideal is not acyclic (degree %d)" % bad)
    base_map = CdgaMorphism(cone.base, q, proj.map.compose(cone.inclusion))
    base_map.validate()
    return TruncatedCone(q, base_map)
