"""Graded-commutative differential graded algebras on a degree window.

Two construction routes, one internal form: explicit structure constants,
or a free graded-commutative presentation with relations.  Products that
would land above the window are truncated to zero; since the grading is
nonnegative this truncation is itself a quotient by an ideal, so the
algebra axioms survive it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

from .checks import (check_cdga, check_cdga_morphism, escape_degree,
                     left_multiples)
from .graded import (CochainComplex, GradedLinearMap, GradedVectorSpace,
                     cohomology, direct_sum, quasi_isomorphism_failure,
                     truncation_spans)
from .linalg import Matrix, Quotienter, axpy, sparse_sum


class AlgebraError(ValueError):
    pass


class Cdga:
    """CDGA with a chosen basis per degree and sparse structure constants.

    product maps (d1, i1, d2, i2) to the product e_{d1,i1} * e_{d2,i2}, a
    vector of degree d1 + d2 in the library's one form, {index: nonzero
    scalar}; missing keys mean the product is zero or is given by graded
    commutativity from the reversed key.  The unit is a degree-0 vector.
    Every key and every index must name a basis element, and no vector
    holds a zero scalar; a zero product, {}, is not stored.
    """

    def __init__(self, field, complex_, product, unit, validate=True):
        self.field = field
        self.complex = complex_
        self.space = complex_.space
        dim = self.space.dim
        if any(not 0 <= i < dim(0) for i in unit):
            raise AlgebraError("unit names an index outside degree 0")
        self.unit = unit
        self.product = {}
        for (d1, i1, d2, i2), v in product.items():
            n = dim(d1 + d2)
            if not (0 <= i1 < dim(d1) and 0 <= i2 < dim(d2)) or any(
                    not 0 <= i < n for i in v):
                raise AlgebraError("product of (%d,%d)*(%d,%d) names no basis "
                                   "element" % (d1, i1, d2, i2))
            if v:
                self.product[(d1, i1, d2, i2)] = v
        # every nonzero product of two basis elements, in both orders; a
        # table that lists both already is shared, not copied
        missing = {(d2, i2, d1, i1): v if (d1 * d2) % 2 == 0
                   else {i: -x for i, x in v.items()}
                   for (d1, i1, d2, i2), v in self.product.items()
                   if (d2, i2, d1, i1) not in self.product}
        self.both_orders = {**self.product, **missing} if missing else self.product
        if validate:
            self.validate()

    # -- multiplication -------------------------------------------------

    def mul_basis(self, d1, i1, d2, i2):
        """The stored product of two basis elements (not to be changed),
        or {}."""
        return self.both_orders.get((d1, i1, d2, i2), {})

    def mul_vec(self, d1, v1, d2, v2):
        out = {}
        table = self.both_orders
        for i1, c1 in v1.items():
            for i2, c2 in v2.items():
                w = table.get((d1, i1, d2, i2))
                if w is not None:
                    axpy(out, c1 * c2, w)
        return out

    def basis_vec(self, d, i):
        return {i: self.field.one}

    def d_vec(self, d, v):
        return self.complex.d.apply(d, v)

    def is_connected(self):
        return self.space.dim(0) == 1 and bool(self.unit)

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
    """Sorted merge of two sorted index tuples with the Koszul sign: each
    odd generator of m2 jumps over the odd generators of m1 above it."""
    out = tuple(sorted(m1 + m2))
    # odd generator squared kills the monomial
    for a, b in zip(out, out[1:]):
        if a == b and gen_degs[a] % 2 == 1:
            return None, ()
    odd1 = [g for g in m1 if gen_degs[g] % 2]
    swaps = 0
    if odd1:
        for g in m2:
            if gen_degs[g] % 2:
                swaps += len(odd1) - bisect_right(odd1, g)
    return field.sign(swaps), out


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
        self.reducers = reducers  # degree -> Quotienter in monomial coordinates


def _poly_to_vec(field, poly, mono_index, deg, gen_degs, what):
    """poly: dict[index-tuple] -> scalar, all monomials of one degree, as
    a sparse vector in monomial coordinates."""
    terms = []
    for mono, coeff in poly.items():
        if _mono_degree(mono, gen_degs) != deg:
            raise AlgebraError("%s is not homogeneous of degree %d" % (what, deg))
        if mono not in mono_index:
            raise AlgebraError("%s contains a monomial outside the window" % what)
        terms.append((mono_index[mono][1], field.of(coeff)))
    return sparse_sum(terms)


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
            dgen[g] = _poly_to_vec(field, poly, mono_index, target_deg, gen_degs,
                                   "d(%s)" % name)

    # vectors below are sparse, {monomial index: nonzero coefficient}
    def d_mono(mono):
        if _mono_degree(mono, gen_degs) + 1 > window.hi:
            return {}
        terms = []
        for j, g in enumerate(mono):
            if g not in dgen:
                continue
            sign = field.sign(_mono_degree(mono[:j], gen_degs))
            rest = mono[:j] + mono[j + 1:]
            tdeg = gen_degs[g] + 1
            for i, c in dgen[g].items():
                s2, prod = _merge_sign(field, monos_by_degree[tdeg][i], rest, gen_degs)
                if s2 is not None:
                    terms.append((mono_index[prod][1], sign * s2 * c))
        return sparse_sum(terms)

    # ideal spans per degree
    spans = {d: [] for d in dims}
    for rn, poly in enumerate(relations):
        if not poly:
            continue
        rel_deg = {_mono_degree(m, gen_degs) for m in poly}
        if len(rel_deg) != 1:
            raise AlgebraError("relation %d is not homogeneous" % rn)
        (e,) = rel_deg
        if e > window.hi:
            continue
        coeffs = [(rm, field.of(coeff)) for rm, coeff in poly.items()]
        for d in range(0, window.hi - e + 1):
            for mono in monos_by_degree.get(d, ()):
                terms = []
                for rm, coeff in coeffs:
                    s, prod = _merge_sign(field, rm, mono, gen_degs)
                    if s is not None:
                        terms.append((mono_index[prod][1], s * coeff))
                v = sparse_sum(terms)
                if v:
                    spans[d + e].append(v)

    reducers = {d: Quotienter(field, spans.get(d, []), n) for d, n in dims.items()}

    def d_vec(d, v):
        return sparse_sum([(k, c * x) for i, c in v.items()
                            for k, x in d_mono(monos_by_degree[d][i]).items()])

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
        red1 = reducers.get(d + 1)
        cols = [red1.project(d_mono(monos_by_degree[d][i])) if red1 else {}
                for i in reducers[d].keep]
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
                    w = red.project({mono_index[prod][1]: s})
                    if w:
                        product[(d1, i1, d2, i2)] = w

    unit = reducers[0].project({0: field.one})
    if not unit:
        raise AlgebraError("relations kill the unit")
    alg = Cdga(field, complex_, product, unit)
    alg.presentation = FreePresentation(gen_names, gen_degs, monos_by_degree,
                                        mono_index, reducers)
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
                    w = coh.reduce(d, a.mul_vec(d1, z1, d2, z2))
                    if w:
                        product[(d1, i1, d2, i2)] = w
    unit = coh.reduce(0, a.unit) if 0 in coh.dims else {}
    halg = Cdga(a.field, complex_, product, unit)
    return halg, coh


@dataclass
class PoincareDualityCertificate:
    n: int
    fundamental_class: dict           # H^n coordinates, {0: 1}
    fundamental_rep: dict             # cocycle representative in the algebra
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
        rows = [{} for _ in range(h.dim(k))]
        for (d1, i, d2, j), v in halg.both_orders.items():
            if d1 == k and d2 == n - k and 0 in v:
                rows[i][j] = v[0]
        m = Matrix.sparse(a.field, rows, h.dim(n - k))
        if m.rank() != h.dim(k):
            return None, PoincareDualityFailure(
                "degenerate pairing between degrees (%d, %d)" % (k, n - k), k)
        pairings[k] = m
    if h.dim(n) != 1:
        return None, PoincareDualityFailure("H^n is not one-dimensional", n)
    # the pairings in degrees (0, n) are the unit law
    pairings[0] = Matrix.identity(a.field, 1)
    pairings[n] = Matrix.identity(a.field, 1)
    fclass = {0: a.field.one}
    frep = coh.reps[n][0]
    return PoincareDualityCertificate(n, fclass, frep, pairings), None


def quotient_complex(complex_, spans):
    """Quotient of a complex by a d-closed graded subspace.

    spans: degree -> list of vectors.  Returns (quotient complex,
    projection map, reducers per degree).
    """
    space = complex_.space
    field = space.field
    reducers = {d: Quotienter(field, spans.get(d, []), space.dim(d))
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
        red1 = reducers.get(d + 1)
        dcols = complex_.d.block(d).transpose().rows
        cols = [red1.project(dcols[i]) if red1 else {} for i in reducers[d].keep]
        dblocks[d] = Matrix.from_cols(field, cols, qspace.dim(d + 1))
    qcx = CochainComplex(qspace, GradedLinearMap(qspace, qspace, 1, dblocks))
    pblocks = {d: Matrix.from_cols(field,
                                   [reducers[d].project({i: field.one})
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
                w = rd.project(mul(d1, v1, d2, r2.lift({i2: r2.field.one})))
                if w:
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
    lifts = [(d, i, r.lift({i: a.field.one}))
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
    unit = {}
    for pi, p in enumerate(parts):
        unit.update(embed(pi, 0, p.unit))
    return Cdga(parts[0].field, cx, product, unit)
