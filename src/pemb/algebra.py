"""Graded-commutative differential graded algebras on a degree window.

Two construction routes, one internal form: explicit structure constants,
or a free graded-commutative presentation with relations.  Products that
would land above the window are truncated to zero; since the grading is
nonnegative this truncation is itself a quotient by an ideal, so the
algebra axioms survive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .checks import (check_cdga, check_cdga_morphism, escape_degree,
                     left_multiples)
from .graded import (CochainComplex, GradedLinearMap, GradedVectorSpace,
                     cohomology, direct_sum, quasi_isomorphism_failure,
                     truncation_spans)
from .linalg import Matrix, add_vec, is_zero_vec, scale_vec, unit_vec, zero_vec


class AlgebraError(ValueError):
    pass


class Cdga:
    """CDGA with a chosen basis per degree and sparse structure constants.

    product maps (d1, i1, d2, i2) to the vector of e_{d1,i1} * e_{d2,i2}
    in degree d1 + d2; missing keys mean the product is zero or is given
    by graded commutativity from the reversed key.  The unit is a
    degree-0 vector.
    """

    def __init__(self, field, complex_, product, unit, validate=True):
        self.field = field
        self.complex = complex_
        self.space = complex_.space
        self.unit = tuple(unit)
        self.product = {}
        for (d1, i1, d2, i2), v in product.items():
            v = tuple(v)
            if len(v) != self.space.dim(d1 + d2):
                raise AlgebraError("product of (%d,%d)*(%d,%d) has wrong length"
                                   % (d1, i1, d2, i2))
            if not is_zero_vec(v):
                self.product[(d1, i1, d2, i2)] = v
        if validate:
            self.validate()

    # -- multiplication -------------------------------------------------

    def mul_basis(self, d1, i1, d2, i2):
        d = d1 + d2
        n = self.space.dim(d)
        if n == 0:
            return ()
        key = (d1, i1, d2, i2)
        if key in self.product:
            return self.product[key]
        rev = (d2, i2, d1, i1)
        if rev in self.product:
            return scale_vec(self.field.sign(d1 * d2), self.product[rev])
        return zero_vec(self.field, n)

    def mul_vec(self, d1, v1, d2, v2):
        out = zero_vec(self.field, self.space.dim(d1 + d2))
        for i1, c1 in enumerate(v1):
            if c1 == 0:
                continue
            for i2, c2 in enumerate(v2):
                if c2 == 0:
                    continue
                out = add_vec(out, scale_vec(c1 * c2, self.mul_basis(d1, i1, d2, i2)))
        return out

    def basis_vec(self, d, i):
        return unit_vec(self.field, self.space.dim(d), i)

    def d_vec(self, d, v):
        return self.complex.d.apply(d, v)

    def is_connected(self):
        return self.space.dim(0) == 1 and not is_zero_vec(self.unit)

    def top_degree(self):
        degs = self.space.degrees()
        return degs[-1] if degs else 0

    # -- validation ------------------------------------------------------

    def validate(self):
        witness = check_cdga(self)
        if witness is not None:
            raise AlgebraError(str(witness))

    def __repr__(self):
        return "Cdga(dims=%s)" % (self.space.dims,)


class CdgaMorphism:
    """Unit-preserving multiplicative chain map between CDGAs."""

    def __init__(self, source, target, glm, validate=True):
        self.source = source
        self.target = target
        self.map = glm
        if validate:
            self.validate()

    def apply(self, d, v):
        return self.map.apply(d, v)

    def validate(self):
        witness = check_cdga_morphism(self)
        if witness is not None:
            raise AlgebraError(str(witness))

    def compose(self, other):
        """self after other."""
        return CdgaMorphism(other.source, self.target,
                            self.map.compose(other.map), validate=False)


# -- free graded-commutative presentations ------------------------------


def _merge_sign(field, m1, m2, gen_degs):
    """Sorted merge of two sorted index tuples with the Koszul sign."""
    sign = field.one
    out = []
    i = j = 0
    m1, m2 = list(m1), list(m2)
    while i < len(m1) and j < len(m2):
        if m1[i] <= m2[j]:
            out.append(m1[i])
            i += 1
        else:
            # m2[j] jumps over the remaining part of m1
            jump = sum(gen_degs[g] for g in m1[i:])
            if (gen_degs[m2[j]] * jump) % 2:
                sign = -sign
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    # odd generator squared kills the monomial
    for a, b in zip(out, out[1:]):
        if a == b and gen_degs[a] % 2 == 1:
            return None, ()
    return sign, tuple(out)


def _mono_degree(mono, gen_degs):
    return sum(gen_degs[g] for g in mono)


def _mono_label(mono, gen_names):
    if not mono:
        return "1"
    parts = []
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        k = j - i
        parts.append(gen_names[mono[i]] if k == 1 else "%s^%d" % (gen_names[mono[i]], k))
        i = j
    return "*".join(parts)


class FreePresentation:
    """Bookkeeping for an algebra materialized from generators/relations."""

    def __init__(self, gen_names, gen_degs, monos_by_degree, mono_index, reducers):
        self.gen_names = gen_names
        self.gen_degs = gen_degs
        self.monos_by_degree = monos_by_degree
        self.mono_index = mono_index
        self.reducers = reducers  # degree -> _Quotienter in monomial coordinates


class _Quotienter:
    """Quotient of k^dim by the span of given vectors, pivot-rule basis."""

    def __init__(self, field, spans, dim):
        self.field = field
        self.dim = dim
        if spans:
            m = Matrix.from_rows(field, [list(v) for v in spans])
            red, pivots = m.rref()
            self.rows = [red.row(r) for r in range(len(pivots))]
            self.pivots = pivots
        else:
            self.rows = []
            self.pivots = []
        pivset = set(self.pivots)
        self.keep = [i for i in range(dim) if i not in pivset]

    def reduce_full(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        return tuple(v)

    def project(self, v):
        r = self.reduce_full(v)
        return tuple(r[i] for i in self.keep)

    def lift(self, w):
        v = [self.field.zero] * self.dim
        for c, i in zip(w, self.keep):
            v[i] = c
        return tuple(v)

    def contains(self, v):
        return is_zero_vec(self.project(v))


def _poly_to_vec(field, poly, mono_index, dim, deg, gen_degs, what):
    """poly: dict[index-tuple] -> scalar, all monomials of one degree."""
    v = [field.zero] * dim
    for mono, coeff in poly.items():
        if _mono_degree(mono, gen_degs) != deg:
            raise AlgebraError("%s is not homogeneous of degree %d" % (what, deg))
        if mono not in mono_index:
            raise AlgebraError("%s contains a monomial outside the window" % what)
        _, i = mono_index[mono]
        v[i] = v[i] + field.of(coeff)
    return tuple(v)


def materialize_free_cdga(field, generators, diffs, relations, window):
    """Build the free graded-commutative algebra on `generators`, impose
    the differential `diffs` (name -> polynomial) and quotient by the
    ideal generated by `relations`, all within the degree window.

    Polynomials are dicts mapping sorted generator-index tuples to
    coefficients.
    """
    if window.lo != 0:
        raise AlgebraError("algebra window must start at 0")
    gen_names = [g for g, _ in generators]
    gen_degs = [d for _, d in generators]
    for g, d in generators:
        if d < 1:
            raise AlgebraError("generator %s must have positive degree" % g)
        if d > window.hi:
            raise AlgebraError("generator %s exceeds the window" % g)

    # monomials per degree, lex order on index tuples
    monos_by_degree = {d: [] for d in range(window.hi + 1)}
    def emit(mono, deg, start):
        monos_by_degree[deg].append(tuple(mono))
        for g in range(start, len(gen_degs)):
            nd = deg + gen_degs[g]
            if nd > window.hi:
                continue
            if mono and mono[-1] == g and gen_degs[g] % 2 == 1:
                continue
            mono.append(g)
            emit(mono, nd, g)
            mono.pop()
    emit([], 0, 0)
    for d in monos_by_degree:
        monos_by_degree[d].sort()
    mono_index = {m: (d, i) for d, ms in monos_by_degree.items()
                  for i, m in enumerate(ms)}

    dims = {d: len(ms) for d, ms in monos_by_degree.items() if ms}

    # differential on generators, then on monomials by the Leibniz rule
    dgen = {}
    for name, poly in diffs.items():
        if name not in gen_names:
            raise AlgebraError("d given for unknown generator %s" % name)
        g = gen_names.index(name)
        target_deg = gen_degs[g] + 1
        if target_deg <= window.hi:
            dgen[g] = _poly_to_vec(field, poly, mono_index, dims.get(target_deg, 0),
                                   target_deg, gen_degs, "d(%s)" % name)

    def d_mono(mono):
        deg = _mono_degree(mono, gen_degs)
        out = [field.zero] * dims.get(deg + 1, 0)
        if deg + 1 > window.hi:
            return tuple(out)
        for j, g in enumerate(mono):
            if g not in dgen:
                continue
            sign = field.sign(_mono_degree(mono[:j], gen_degs))
            rest = mono[:j] + mono[j + 1:]
            dv = dgen[g]
            tdeg = gen_degs[g] + 1
            for i, c in enumerate(dv):
                if c == 0:
                    continue
                s2, prod = _merge_sign(field, monos_by_degree[tdeg][i], rest, gen_degs)
                if s2 is None:
                    continue
                _, idx = mono_index[prod]
                out[idx] = out[idx] + sign * s2 * c
        return tuple(out)

    # ideal spans per degree
    spans = {d: [] for d in dims}
    rel_vecs = []
    for rn, poly in enumerate(relations):
        if not poly:
            continue
        rel_deg = {_mono_degree(m, gen_degs) for m in poly}
        if len(rel_deg) != 1:
            raise AlgebraError("relation %d is not homogeneous" % rn)
        (e,) = rel_deg
        if e > window.hi:
            continue
        rel_vecs.append((e, dict(poly)))
        for d in range(0, window.hi - e + 1):
            for mono in monos_by_degree.get(d, ()):
                v = [field.zero] * dims.get(d + e, 0)
                for rm, coeff in poly.items():
                    s, prod = _merge_sign(field, rm, mono, gen_degs)
                    if s is None:
                        continue
                    _, idx = mono_index[prod]
                    v[idx] = v[idx] + s * field.of(coeff)
                if not is_zero_vec(v):
                    spans[d + e].append(tuple(v))

    reducers = {d: _Quotienter(field, spans.get(d, []), n) for d, n in dims.items()}

    def d_vec(d, v):
        out = (field.zero,) * dims.get(d + 1, 0)
        for i, c in enumerate(v):
            if c != 0:
                out = add_vec(out, scale_vec(c, d_mono(monos_by_degree[d][i])))
        return out

    bad = escape_degree(spans, reducers, lambda d, v: [(d + 1, d_vec(d, v))])
    if bad is not None:
        raise AlgebraError("differential does not preserve the relation ideal "
                           "in degree %d" % bad)

    # quotient basis, labels, differential, product
    qdims, qlabels = {}, {}
    for d, red in sorted(reducers.items()):
        if red.keep:
            qdims[d] = len(red.keep)
            qlabels[d] = [_mono_label(monos_by_degree[d][i], gen_names)
                          for i in red.keep]
    space = GradedVectorSpace(field, window, qdims, qlabels)

    dblocks = {}
    for d in space.degrees():
        red = reducers[d]
        red1 = reducers.get(d + 1)
        cols = []
        for i in red.keep:
            dv = d_mono(monos_by_degree[d][i])
            cols.append(red1.project(dv) if red1 else ())
        dblocks[d] = Matrix.from_cols(field, cols, space.dim(d + 1))
    complex_ = CochainComplex(space, GradedLinearMap(space, space, 1, dblocks))

    product = {}
    for d1 in space.degrees():
        for d2 in space.degrees():
            d = d1 + d2
            if d > window.hi or space.dim(d) == 0:
                continue
            red = reducers[d]
            for i1, k1 in enumerate(reducers[d1].keep):
                m1 = monos_by_degree[d1][k1]
                for i2, k2 in enumerate(reducers[d2].keep):
                    m2 = monos_by_degree[d2][k2]
                    s, prod = _merge_sign(field, m1, m2, gen_degs)
                    if s is None:
                        continue
                    v = [field.zero] * len(monos_by_degree[d])
                    _, idx = mono_index[prod]
                    v[idx] = s
                    w = red.project(tuple(v))
                    if not is_zero_vec(w):
                        product[(d1, i1, d2, i2)] = w

    unit = reducers[0].project(unit_vec(field, dims[0], 0))
    if is_zero_vec(unit):
        raise AlgebraError("relations kill the unit")
    alg = Cdga(field, complex_, product, unit)
    alg.presentation = FreePresentation(gen_names, gen_degs, monos_by_degree,
                                        mono_index, reducers)
    alg.relation_polys = rel_vecs
    return alg


# -- derived constructions ----------------------------------------------


def cohomology_algebra(a, coh=None):
    """Cohomology of a CDGA as a zero-differential CDGA on the chosen
    representatives; returns (H-algebra, cohomology data)."""
    if coh is None:
        coh = cohomology(a.complex)
    dims = dict(coh.dims)
    labels = {d: ["h%d_%d" % (d, i) for i in range(n)] for d, n in dims.items()}
    space = GradedVectorSpace(a.field, a.space.window, dims, labels)
    complex_ = CochainComplex.zero_differential(space)
    product = {}
    for d1 in space.degrees():
        for d2 in space.degrees():
            d = d1 + d2
            if d > space.window.hi:
                continue
            for i1, z1 in enumerate(coh.reps[d1]):
                for i2, z2 in enumerate(coh.reps[d2]):
                    v = a.mul_vec(d1, z1, d2, z2)
                    w = coh.reduce(d, v)
                    if w and not is_zero_vec(w):
                        product[(d1, i1, d2, i2)] = w
    unit = coh.reduce(0, a.unit) if 0 in coh.dims else ()
    halg = Cdga(a.field, complex_, product, unit)
    return halg, coh


@dataclass
class PoincareDualityCertificate:
    n: int
    fundamental_class: tuple          # H^n coordinates (length 1)
    fundamental_rep: tuple            # cocycle representative in the algebra
    pairings: dict = dc_field(default_factory=dict)   # k -> Matrix H^k x H^(n-k) -> H^n


@dataclass
class PoincareDualityFailure:
    reason: str
    degree: int | None = None

    def __str__(self):
        if self.degree is None:
            return self.reason
        return "%s (degree %d)" % (self.reason, self.degree)


def check_poincare_duality(a, n, halg=None, coh=None):
    """Certificate that H(a) is a Poincare duality algebra in dimension n,
    or a failure report naming the first failing degree."""
    if halg is None:
        halg, coh = cohomology_algebra(a)
    h = halg.space
    if h.dim(0) != 1:
        return None, PoincareDualityFailure("H^0 is not one-dimensional", 0)
    if not halg.is_connected():
        return None, PoincareDualityFailure("H^0 not spanned by the unit class", 0)
    for d in h.degrees():
        if d > n:
            return None, PoincareDualityFailure("cohomology above dimension", d)
    pairings = {}
    for k in range(1, n):
        if h.dim(k) != h.dim(n - k):
            return None, PoincareDualityFailure(
                "complementary degrees have unequal dimensions", k)
        if h.dim(k) == 0:
            continue
        rows = []
        for i in range(h.dim(k)):
            row = []
            for j in range(h.dim(n - k)):
                v = halg.mul_basis(k, i, n - k, j)
                row.append(v[0] if v else a.field.zero)
            rows.append(row)
        m = Matrix.from_rows(a.field, rows)
        if m.rank() != h.dim(k):
            return None, PoincareDualityFailure(
                "degenerate pairing between degrees (%d, %d)" % (k, n - k), k)
        pairings[k] = m
    if h.dim(n) != 1:
        return None, PoincareDualityFailure("H^n is not one-dimensional", n)
    # the pairings in degrees (0, n) are the unit law
    pairings[0] = Matrix.identity(a.field, 1)
    pairings[n] = Matrix.identity(a.field, 1)
    fclass = (a.field.one,)
    frep = coh.reps[n][0]
    return PoincareDualityCertificate(n, fclass, frep, pairings), None


def quotient_complex(complex_, spans):
    """Quotient of a complex by a d-closed graded subspace.

    spans: degree -> list of vectors.  Returns (quotient complex,
    projection map, reducers per degree).
    """
    space = complex_.space
    field = space.field
    reducers = {d: _Quotienter(field, spans.get(d, []), space.dim(d))
                for d in space.degrees()}
    bad = escape_degree(spans, reducers,
                        lambda d, v: [(d + 1, complex_.d.apply(d, v))])
    if bad is not None:
        raise AlgebraError("subspace not closed under d at degree %d" % (bad - 1))
    qdims, qlabels = {}, {}
    for d, red in reducers.items():
        if red.keep:
            qdims[d] = len(red.keep)
            qlabels[d] = [space.label(d, i) for i in red.keep]
    qspace = GradedVectorSpace(field, space.window, qdims, qlabels)
    dblocks = {}
    for d in qspace.degrees():
        red, red1 = reducers[d], reducers.get(d + 1)
        cols = [red1.project(complex_.d.apply(d, red.lift(unit_vec(field, len(red.keep), i))))
                if red1 else () for i in range(len(red.keep))]
        dblocks[d] = Matrix.from_cols(field, cols, qspace.dim(d + 1))
    qcx = CochainComplex(qspace, GradedLinearMap(qspace, qspace, 1, dblocks))
    pblocks = {d: Matrix.from_cols(field,
                                   [reducers[d].project(unit_vec(field, space.dim(d), i))
                                    for i in range(space.dim(d))], qspace.dim(d))
               for d in space.degrees()}
    proj = GradedLinearMap(space, qspace, 0, pblocks)
    return qcx, proj, reducers


def projected_table(lefts, reducers, mul, hi):
    """Structure constants on a quotient: for each left factor (d1, i1, v1)
    and each quotient basis element i2 of degree d2 <= hi - d1, the
    nonzero projection of mul(d1, v1, d2, its lift)."""
    table = {}
    for d1, i1, v1 in lefts:
        for d2, r2 in reducers.items():
            rd = reducers.get(d1 + d2)
            if d1 + d2 > hi or rd is None or not rd.keep:
                continue
            for i2 in range(len(r2.keep)):
                w = rd.project(mul(d1, v1, d2, r2.lift(unit_vec(r2.field, len(r2.keep), i2))))
                if not is_zero_vec(w):
                    table[(d1, i1, d2, i2)] = w
    return table


def quotient_cdga(a, spans):
    """Quotient of a CDGA by a d-closed ideal given by degreewise spans.

    Validates closure under d and under multiplication; returns
    (quotient, projection morphism, reducers)."""
    qcx, proj, reducers = quotient_complex(a.complex, spans)
    sp = a.space
    bad = escape_degree(spans, reducers, left_multiples(a, a.mul_vec, sp.window.hi))
    if bad is not None:
        raise AlgebraError("subspace is not an ideal (degree %d)" % bad)
    lifts = [(d, i, r.lift(unit_vec(a.field, len(r.keep), i)))
             for d, r in reducers.items() for i in range(len(r.keep))]
    product = projected_table(lifts, reducers, a.mul_vec, sp.window.hi)
    unit = reducers[0].project(a.unit)
    q = Cdga(a.field, qcx, product, unit)
    morphism = CdgaMorphism(a, q, proj)
    return q, morphism, reducers


def quotient_by_acyclic_ideal(a, above):
    """Surjective quasi-isomorphism onto a quotient vanishing above
    degree above+1, with acyclic kernel concentrated in degrees > above.

    Needs H^(>above+1)(a) = 0 so the kernel can be acyclic; H^(above+1)
    itself may be nonzero.
    """
    if not a.is_connected():
        raise AlgebraError("acyclic-ideal quotient needs a connected algebra")
    coh = cohomology(a.complex)
    for d in sorted(coh.dims):
        if d >= above + 2:
            raise AlgebraError("H^%d != 0: cannot build an acyclic ideal above "
                               "degree %d" % (d, above))
    q, proj, _ = quotient_cdga(a, truncation_spans(a.complex, above + 1))
    bad = quasi_isomorphism_failure(proj.map, coh, cohomology(q.complex))
    if bad is not None:
        raise AlgebraError("acyclic-ideal projection not a quasi-isomorphism "
                           "(internal, degree %d)" % bad)
    return q, proj


def direct_sum_cdga(parts):
    """Product algebra of finitely many CDGAs (componentwise operations).

    The result is connected only for a single part; the unit is the sum
    of the component units."""
    if not parts:
        raise AlgebraError("empty direct sum")
    cx, offset, embed = direct_sum([p.complex for p in parts])
    product = {}
    for pi, p in enumerate(parts):
        for (d1, i1, d2, i2), v in p.product.items():
            product[(d1, offset[(pi, d1)] + i1,
                     d2, offset[(pi, d2)] + i2)] = embed(pi, d1 + d2, v)
    unit = cx.space.zero(0)
    for pi, p in enumerate(parts):
        unit = add_vec(unit, embed(pi, 0, p.unit))
    return Cdga(parts[0].field, cx, product, unit)
