"""Graded-commutative differential graded algebras on a degree window.

Two construction routes, one internal form: explicit structure constants,
or a free graded-commutative presentation with relations.  Products that
would land above the window are truncated to zero; since the grading is
nonnegative this truncation is itself a quotient by an ideal, so the
algebra axioms survive it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from itertools import count
from operator import itemgetter

from .checks import check_cdga, check_cdga_morphism, generating_set
from .graded import (CochainComplex, GradedLinearMap, GradedVectorSpace,
                     InternalError, cohomology, direct_sum,
                     quasi_isomorphism_failure, truncation_spans)
from .linalg import Matrix, axpy, scaled, sparse_sum
from .tables import bilinear, swapped


class AlgebraError(ValueError):
    pass


class Cdga:
    """CDGA with a chosen basis per degree and sparse structure constants.

    product maps (d1, i1, d2, i2) to the product e_{d1,i1} * e_{d2,i2}, a
    vector of degree d1 + d2 in the library's one form, {index: nonzero
    scalar}; missing keys mean the product is zero or is given by graded
    commutativity from the reversed key.  The unit is a degree-0 vector.
    Every key and every index must name a basis element, and no vector
    holds a zero scalar; a zero product, {}, is not stored.  The
    constructor takes the table as it is, neither copied nor checked;
    `validate` checks indices, then axioms.
    """

    def __init__(self, field, complex_, product, unit):
        self.field = field
        self.complex = complex_
        self.space = complex_.space
        self.unit = unit
        self.product = product
        # every nonzero product of two basis elements, in both orders; a
        # table that lists both already is shared, not copied
        missing = swapped(field, {(d1, i1, d2, i2): v for (d1, i1, d2, i2), v in product.items()
                                  if (d2, i2, d1, i1) not in product})
        self.both_orders = {**self.product, **missing} if missing else self.product
        # the generating set S of a passing `check_cdga`, its proof record
        self.proven_generators = None

    # -- multiplication -------------------------------------------------

    def mul_vec(self, d1, v1, d2, v2):
        return bilinear(self.field, self.both_orders, d1, v1, d2, v2)

    def basis_vec(self, d, i):
        return {i: self.field.one}

    def d_vec(self, d, v):
        return self.complex.d.apply(d, v)

    def is_connected(self):
        return self.space.dim(0) == 1 and bool(self.unit)

    # -- validation ------------------------------------------------------

    def validate(self):
        witness = check_cdga(self)
        if witness is not None:
            raise AlgebraError(str(witness))

    def __repr__(self):
        return "Cdga(dims=%s)" % (self.space.dims,)


class CdgaMorphism:
    """Unit-preserving multiplicative chain map between CDGAs; `validate`
    checks that it is one."""

    def __init__(self, source, target, glm):
        self.source = source
        self.target = target
        self.map = glm

    def apply(self, d, v):
        return self.map.apply(d, v)

    @staticmethod
    def identity(a):
        return CdgaMorphism(a, a, GradedLinearMap.identity(a.space))

    def validate(self):
        witness = check_cdga_morphism(self)
        if witness is not None:
            raise AlgebraError(str(witness))


# -- free graded-commutative presentations ------------------------------
#
# A monomial is a sorted tuple of generator indices in which no odd
# generator repeats, and a polynomial is a homogeneous dict {monomial:
# nonzero scalar}.  Monomials of one degree compare as tuples, and the
# smallest tuple of a polynomial is its leading monomial: this is lex
# order with generator 0 largest, a monomial order.

# The most standard monomials one presentation may have over its whole
# window; enumeration stops past it and names the degree it reached.
MAX_STANDARD_MONOMIALS = 10000

# The most nonzero products of two standard monomials, each order
# counted, one presentation may have; building its table stops past it
# and names the degree it reached.  Building and checking the table take
# time and memory in proportion to this count, which the bound above
# alone would let reach its square.
MAX_PRODUCT_ENTRIES = 1000000


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


def _is_monomial(mono, gen_degs):
    return (all(0 <= g < len(gen_degs) for g in mono) and list(mono) == sorted(mono)
            and not any(a == b and gen_degs[a] % 2 for a, b in zip(mono, mono[1:])))


def _divide(t, m):
    """The monomial q with q * m = +-t, or None when m does not divide t."""
    q, i = [], 0
    for g in t:
        if i < len(m) and m[i] == g:
            i += 1
        elif i < len(m) and m[i] < g:
            return None
        else:
            q.append(g)
    return tuple(q) if i == len(m) else None


def _lcm(a, b):
    """Least common multiple of two monomials: each generator to the
    larger of its two multiplicities."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        if a[i] <= b[j]:
            out.append(a[i])
            j += a[i] == b[j]
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _times(field, q, poly, gen_degs):
    """The polynomial q * poly, for a monomial q."""
    terms = []
    for m, c in poly.items():
        s, prod = _merge_sign(field, q, m, gen_degs)
        if s is not None:
            terms.append((prod, s * c))
    return sparse_sum(field, terms)


def _reduce(field, poly, basis, gen_degs):
    """Normal form of a homogeneous polynomial against `basis`, a list of
    (leading monomial, monic polynomial): no term of the result is a
    multiple of a leading monomial.

    Terms are taken leading first.  Reducing t = s q LM(g) by g puts in
    its place the terms q u of g's tail, and each q u follows t in the
    order, so every monomial is taken once, with its final coefficient.
    """
    work = dict(poly)
    queue = list(work)
    heapq.heapify(queue)
    out = {}
    while queue:
        t = heapq.heappop(queue)
        c = work.pop(t, None)
        if c is None:
            continue
        for lm, g in basis:
            q = _divide(t, lm)
            if q is not None:
                break
        else:
            out[t] = c
            continue
        s, _ = _merge_sign(field, q, lm, gen_degs)
        tail = {}   # q times the tail of g; distinct u give distinct q u
        for u, cu in g.items():
            if u == lm:
                continue
            s2, v = _merge_sign(field, q, u, gen_degs)
            if s2 is None:
                continue
            tail[v] = s2 * cu
            if v not in work:
                heapq.heappush(queue, v)
        axpy(field, work, -s * c, tail)
    return out


def _groebner_basis(field, relations, gen_degs, hi):
    """Reduced Groebner basis, truncated at degree hi, of the ideal that
    the homogeneous polynomials `relations` generate: a list of (leading
    monomial, monic polynomial).

    Buchberger's algorithm with the graded-commutative rule of Stokes
    ("Groebner bases in exterior algebras", J. Automated Reasoning,
    1990): besides the S-polynomials, x * g must reduce to zero for each
    odd generator x of LM(g), since x * LM(g) = 0 leaves x * g led by a
    lower term.  Two monomials have S-polynomial zero, so monomial
    relations are their own basis.  Polynomials are taken lowest degree
    first and every one queued is of the degree taken or above, so a new
    leading monomial never divides an earlier one and only the tails are
    left to inter-reduce.
    """
    order = count()
    queue = [(_mono_degree(min(r), gen_degs), next(order), r) for r in relations]
    heapq.heapify(queue)
    basis = []
    while queue:
        e, _, f = heapq.heappop(queue)
        f = _reduce(field, f, basis, gen_degs)
        if not f:
            continue
        lm = min(f)
        f = scaled(field, field.div(field.one, f[lm]), f)
        found = []
        for lm2, g in basis:
            if len(f) == 1 and len(g) == 1:
                continue
            lcm = _lcm(lm, lm2)
            if _mono_degree(lcm, gen_degs) <= hi:
                q1, q2 = _divide(lcm, lm), _divide(lcm, lm2)
                s1, _ = _merge_sign(field, q1, lm, gen_degs)
                s2, _ = _merge_sign(field, q2, lm2, gen_degs)
                # q1 f - s1 s2 q2 g: the two leading terms cancel
                spoly = _times(field, q1, f, gen_degs)
                axpy(field, spoly, -s1 * s2, _times(field, q2, g, gen_degs))
                found.append(spoly)
        found += [_times(field, (x,), f, gen_degs) for x in lm
                  if gen_degs[x] % 2 and e + gen_degs[x] <= hi]
        for h in found:
            if h:
                heapq.heappush(queue, (_mono_degree(min(h), gen_degs), next(order), h))
        basis.append((lm, f))
    for k, (lm, g) in enumerate(basis):
        tail = _reduce(field, {m: c for m, c in g.items() if m != lm},
                       basis[:k] + basis[k + 1:], gen_degs)
        basis[k] = (lm, {lm: field.one, **tail})
    return basis


def _d_mono(field, mono, dgen, gen_degs, hi):
    """d of a monomial by the Leibniz rule, a polynomial of one degree
    more; dgen maps generators to their differentials, and d vanishes
    into degrees above hi.

    The term of generator g = mono[j] is (-1)^|prefix| prefix d(g) rest,
    prefix = mono[:j]; moving d(g), of degree |g| + 1, to the front turns
    the sign into (-1)^(|g| |prefix|) times that of d(g) * (mono without
    g).
    """
    if _mono_degree(mono, gen_degs) + 1 > hi:
        return {}
    terms = []
    for j, g in enumerate(mono):
        if g not in dgen:
            continue
        sign = field.sign(gen_degs[g] * _mono_degree(mono[:j], gen_degs))
        rest = mono[:j] + mono[j + 1:]
        for t, c in dgen[g].items():
            s2, prod = _merge_sign(field, t, rest, gen_degs)
            if s2 is not None:
                terms.append((prod, sign * s2 * c))
    return sparse_sum(field, terms)


class FreePresentation:
    """An algebra materialized from a free presentation: the degrees of
    its generators, the reduced Groebner basis of its relation ideal,
    and its basis, the standard monomials of each degree in lex order."""

    def __init__(self, field, gen_degs, basis, standard):
        self.field = field
        self.gen_degs = gen_degs
        self.groebner_basis = basis  # [(leading monomial, monic polynomial)]
        self.standard = standard    # degree -> standard monomials
        self._position = {m: i for ms in standard.values() for i, m in enumerate(ms)}
        self._reduced = {}          # monomial that is not standard -> its class

    def monomial_form(self, t):
        """The class of a monomial of degree within the window, a vector
        over the standard monomials of its degree (not to be changed)."""
        i = self._position.get(t)
        if i is not None:
            return {i: self.field.one}
        v = self._reduced.get(t)
        if v is None:
            nf = _reduce(self.field, {t: self.field.one}, self.groebner_basis,
                         self.gen_degs)
            v = self._reduced[t] = {self._position[m]: c for m, c in nf.items()}
        return v

    def normal_form(self, poly):
        """The class of a homogeneous polynomial of degree within the
        window, a vector over the standard monomials of its degree."""
        return sparse_sum(self.field, [(i, c * x) for t, c in poly.items()
                           for i, x in self.monomial_form(t).items()])


def _poly_in_degree(field, poly, deg, gen_degs, what):
    """poly with its coefficients coerced, checked to be a polynomial of
    degree deg."""
    terms = []
    for mono, coeff in poly.items():
        if _mono_degree(mono, gen_degs) != deg:
            raise AlgebraError("%s is not homogeneous of degree %d" % (what, deg))
        if not _is_monomial(mono, gen_degs):
            raise AlgebraError("%s has a term that is not a sorted monomial of the "
                               "generators, or that repeats an odd one" % what)
        terms.append((mono, field.of(coeff)))
    return sparse_sum(field, terms)


def _standard_monomials(basis, gen_degs, hi):
    """degree -> the monomials of degree <= hi that no leading monomial of
    `basis` divides, in lex order; nonempty degrees only.

    A monomial is a standard monomial times its last generator, so each
    degree extends the lower ones; a multiple of a leading monomial is
    never extended, since its multiples are multiples too.  A standard t
    extended by g is a multiple only of leading monomials that end in g.
    """
    ending = {}
    for lm, _ in basis:
        ending.setdefault(lm[-1] if lm else None, []).append(lm)
    standard = {} if None in ending else {0: [()]}
    total = len(standard)
    for d in range(1, hi + 1):
        found = []
        for g, gd in enumerate(gen_degs):
            for m in standard.get(d - gd, ()):
                if m and (m[-1] > g or (m[-1] == g and gd % 2)):
                    continue
                t = m + (g,)
                if any(_divide(t, lm) is not None for lm in ending.get(g, ())):
                    continue
                total += 1
                if total > MAX_STANDARD_MONOMIALS:
                    raise AlgebraError("presentation has more than %d standard "
                                       "monomials by degree %d"
                                       % (MAX_STANDARD_MONOMIALS, d))
                found.append(t)
        if found:
            found.sort()
            standard[d] = found
    return standard


def materialize_free_cdga(field, generators, diffs, relations, window):
    """Build the free graded-commutative algebra on `generators`, impose
    the differential `diffs` (name -> polynomial) and quotient by the
    ideal generated by `relations`, all within the degree window.

    Polynomials are dicts mapping sorted generator-index tuples to
    coefficients; a term of d or of a relation that is not such a
    monomial, or that repeats an odd generator, is refused.  The
    quotient basis in each degree is the set of standard monomials of a
    reduced Groebner basis of the ideal in lex order with generator 0
    largest, and a class is written through its normal form.  These are
    the basis and the coordinates that reducing the span of all
    multiples of the relations by `Matrix.rref` gives, in monomial
    coordinates indexed in lex order of sorted tuples: that rule pivots
    on a row's smallest column, its leading monomial, so the pivots are
    the leading monomials of the ideal, the kept columns the standard
    monomials, and the remainder of a reduction the normal form.  Bases,
    labels, signs and tables follow from the ideal alone.

    The result is proven here, not walked: it keeps `generating_set` of
    its table as its proof record, as a passing `check_cdga` would.
    Given `_merge_sign` (the sign of d and of the Groebner basis), the
    mask sign of the product loop, `normal_form` and `_groebner_basis`,
    the checks below make every axiom hold.  Merging sorted monomials
    with the Koszul sign is the product of the free graded-commutative
    algebra F(V), associative and graded commutative with unit the empty
    monomial; generator degrees are positive, so F(V) is nonnegatively
    graded with F(V)^0 spanned by 1.  `_d_mono` extends d from the
    generators by the Leibniz rule, so d is a derivation, of degree +1
    since each d(g) is checked homogeneous of degree |g| + 1.  d of each
    relation r is checked to reduce to 0, so lies in the ideal I, and
    then d(rm) = d(r)m + (-1)^|r| r d(m) lies in I for every multiple rm:
    I is a differential ideal, and so is I + F(V)^(>hi), as d raises
    degree.  The quotient is therefore a graded-commutative algebra with
    a derivation of degree +1 and d(1) = 0, and `CochainComplex` checks
    d*d = 0 on it.  The standard monomials are a basis of the quotient
    and `normal_form` writes a class in it, so the tables built here (the
    normal forms of the merged products, of d of each standard monomial
    and of 1) are the quotient's in that basis, with indices that name
    standard monomials.  A presentation that fails one of the checks
    raises instead.

    The product table lists both orders of every nonzero product, keys
    in the order of the loops over (d1, d2, i1, i2), i2 only where m2
    shares with m1 no generator of zero square.  Each unordered pair of
    standard monomials is merged once, at the first of its two keys;
    the second key is written as the Koszul sign (-1)^(d1 d2) times the
    vector stored at the first, since m2 m1 = (-1)^(|m1||m2|) m1 m2 in
    the free algebra and both merge into one monomial.  The mask sign of
    a merge is `_merge_sign`'s, (-1)^k, k the number of odd generators
    a of m1 and b of m2 with a > b: the parity of the bits of
    above(m1) & odd(m2), odd(m) the bitmask of m's odd generators and
    above(m) the XOR of 2^a - 1 over them.
    """
    if window.lo != 0:
        raise AlgebraError("algebra window must start at 0")
    hi = window.hi
    gen_names = [g for g, _ in generators]
    gen_degs = [d for _, d in generators]
    for g, d in generators:
        if d < 1:
            raise AlgebraError("generator %s must have positive degree" % g)
        if d > hi:
            raise AlgebraError("generator %s exceeds the window" % g)

    dgen = {}
    for name, poly in diffs.items():
        if name not in gen_names:
            raise AlgebraError("d given for unknown generator %s" % name)
        g = gen_names.index(name)
        if gen_degs[g] + 1 <= hi:
            dgen[g] = _poly_in_degree(field, poly, gen_degs[g] + 1, gen_degs,
                                      "d(%s)" % name)

    rels = []   # (degree, polynomial) of the relations within the window
    for rn, poly in enumerate(relations):
        if not poly:
            continue
        rel_deg = {_mono_degree(m, gen_degs) for m in poly}
        if len(rel_deg) != 1:
            raise AlgebraError("relation %d is not homogeneous" % rn)
        (e,) = rel_deg
        if e > hi:
            continue
        r = _poly_in_degree(field, poly, e, gen_degs, "relation %d" % rn)
        if r:
            rels.append((e, r))
    basis = _groebner_basis(field, [r for _, r in rels], gen_degs, hi)

    # d is a derivation, so d(r m) = d(r) m +- r d(m) lies in the ideal
    # for every multiple r m of a relation r with d(r) in it
    for e, r in sorted(rels, key=itemgetter(0)):
        dr = sparse_sum(field, [(t, c * x) for m, c in r.items()
                         for t, x in _d_mono(field, m, dgen, gen_degs, hi).items()])
        if _reduce(field, dr, basis, gen_degs):
            raise AlgebraError("differential does not preserve the relation ideal "
                               "in degree %d" % (e + 1))

    standard = _standard_monomials(basis, gen_degs, hi)
    pres = FreePresentation(field, gen_degs, basis, standard)
    space = GradedVectorSpace(field, window, {d: len(ms) for d, ms in standard.items()},
                              {d: [_mono_label(m, gen_names) for m in ms]
                               for d, ms in standard.items()})

    dblocks = {}
    for d in space.degrees():
        cols = [pres.normal_form(_d_mono(field, m, dgen, gen_degs, hi))
                if not dgen.keys().isdisjoint(m) else {} for m in standard[d]]
        dblocks[d] = Matrix.from_cols(field, cols, space.dim(d + 1))
    complex_ = CochainComplex(space, GradedLinearMap(space, space, 1, dblocks))

    # The generators whose square is zero: the odd ones, and those g with
    # (g, g) a one-term element of the Groebner basis.  A standard
    # monomial holds such a g at most once, and two that share one
    # multiply into the ideal, so the positions of degree d2 live for m1
    # are those outside held[d2][g], the bitset of positions whose
    # monomial holds g, for each such g of m1.  odds[d][i] is odd(m) of
    # the mask sign, for m the i-th standard monomial of degree d.
    squared = {lm[0] for lm, p in basis if len(p) == 1 and len(lm) == 2 and lm[0] == lm[1]}
    nil = [g for g, e in enumerate(gen_degs) if e % 2 or g in squared]
    held = {d: {g: sum(1 << i for i, m in enumerate(ms) if g in m) for g in nil}
            for d, ms in standard.items()}
    odds = {d: [sum(1 << g for g in m if gen_degs[g] % 2) for m in ms]
            for d, ms in standard.items()}
    product = {}

    def store(key, v, d):
        product[key] = v
        if len(product) > MAX_PRODUCT_ENTRIES:
            raise AlgebraError("presentation has more than %d nonzero "
                               "products of basis elements by degree %d"
                               % (MAX_PRODUCT_ENTRIES, d))

    for d1 in space.degrees():
        for d2 in space.degrees():
            d = d1 + d2
            if d > hi or space.dim(d) == 0:
                continue
            odd = (d1 * d2) % 2
            ms2, held2, odds2 = standard[d2], held[d2], odds[d2]
            for i1, m1 in enumerate(standard[d1]):
                live, above1 = (1 << len(ms2)) - 1, 0
                for g in m1:
                    live &= ~held2.get(g, 0)
                    if gen_degs[g] % 2:
                        above1 ^= (1 << g) - 1
                # the keys (d2, i2) before (d1, i1), whose pairs are merged
                merged = len(ms2) if d2 < d1 else i1 if d2 == d1 else 0
                while live:
                    i2 = (live & -live).bit_length() - 1
                    live &= live - 1
                    if i2 < merged:
                        # merged at the reversed key: m1 m2 = +-m2 m1
                        v = product.get((d2, i2, d1, i1))
                        if v is not None:
                            store((d1, i1, d2, i2),
                                  scaled(field, field.minus_one, v) if odd else v, d)
                        continue
                    w = pres.monomial_form(tuple(sorted(m1 + ms2[i2])))
                    if w:
                        s = field.sign((above1 & odds2[i2]).bit_count())
                        # a read-only vector may be shared, not copied
                        store((d1, i1, d2, i2), w if s == field.one
                              else scaled(field, s, w), d)

    unit = pres.normal_form({(): field.one})
    if not unit:
        raise AlgebraError("relations kill the unit")
    alg = Cdga(field, complex_, product, unit)
    alg.presentation = pres
    alg.proven_generators = generating_set(alg)
    return alg


def renamed_presentation(a, gen_names):
    """The algebra `a`, materialized from a free presentation, under the
    generator names `gen_names`: its own basis labels and complex,
    sharing a's product table, differential blocks, unit, presentation
    and proof record.

    Nothing is materialized or proven again.  The proof of
    `materialize_free_cdga`, like `check_cdga`, reads only the field, the
    dimensions, the tables and the unit, which are a's; the names only
    label the basis and name a witness; and no table is changed after
    construction."""
    space = GradedVectorSpace(a.field, a.space.window, a.space.dims,
                              {d: [_mono_label(m, gen_names) for m in ms]
                               for d, ms in a.presentation.standard.items()})
    d = _like(a.complex.d, source=space, target=space)
    complex_ = _like(a.complex, space=space, d=d, _cohomology=None)
    return _like(a, complex=complex_, space=space)


def _like(obj, **fields):
    """A new object of obj's class holding obj's attributes, `fields`
    replaced; its constructor, and so every check in it, is not run."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **fields)
    return new


def same_tables(a, b):
    """Whether two algebras share their product table, differential
    blocks and unit, as the copies of one parsed presentation do."""
    return (a.product is b.product and a.complex.d.blocks is b.complex.d.blocks
            and a.unit is b.unit)


# -- derived constructions ----------------------------------------------


def cohomology_algebra(a):
    """Cohomology of a CDGA as a zero-differential CDGA on the chosen
    representatives; returns (H-algebra, cohomology data).

    Not re-checked: by Leibniz in `a` the product of classes is well
    defined, so H(a) inherits the axioms of `a`; d = 0 on it."""
    coh = cohomology(a.complex)
    dims = dict(coh.dims)
    labels = {d: ["h%d_%d" % (d, i) for i in range(n)] for d, n in dims.items()}
    space = GradedVectorSpace(a.field, a.space.window, dims, labels)
    product = projected_table(left_factors(coh.reps), coh.reps, coh.reduce, a.mul_vec,
                              space.window.hi)
    unit = coh.reduce(0, a.unit) if 0 in coh.dims else {}
    halg = Cdga(a.field, CochainComplex.zero_differential(space), product, unit)
    return halg, coh


@dataclass
class PoincareDualityCertificate:
    n: int
    fundamental_class: dict           # H^n coordinates, {0: 1}
    pairings: dict = dc_field(default_factory=dict)   # k -> Matrix H^k x H^(n-k) -> H^n


@dataclass
class PoincareDualityFailure:
    reason: str
    degree: int | None = None

    def __str__(self):
        if self.degree is None:
            return self.reason
        return "%s (degree %d)" % (self.reason, self.degree)


def check_poincare_duality(halg, n):
    """Certificate that an algebra with zero differential, in practice
    the `cohomology_algebra` the caller built, is a Poincare duality
    algebra in dimension n, or a failure report naming the first failing
    degree."""
    if halg.complex.d.blocks:
        raise AlgebraError("duality is certified on an algebra with d = 0")
    h = halg.space
    if h.dim(0) != 1:
        return None, PoincareDualityFailure("H^0 is not one-dimensional", 0)
    if not halg.is_connected():
        return None, PoincareDualityFailure("H^0 not spanned by the unit class", 0)
    for d in h.degrees():
        if d > n:
            return None, PoincareDualityFailure("cohomology above dimension", d)
    pairings = {}
    # H^k = H^(n-k) = 0 passes, so only the degrees with a class or a
    # complementary class are walked: the first failure is the same
    inner = [d for d in h.degrees() if 0 < d < n]
    for k in sorted(set(inner) | {n - d for d in inner}):
        if h.dim(k) != h.dim(n - k):
            return None, PoincareDualityFailure(
                "complementary degrees have unequal dimensions", k)
        m = _pairing(halg, k, n)
        if m.rank() != h.dim(k):
            return None, PoincareDualityFailure(
                "degenerate pairing between degrees (%d, %d)" % (k, n - k), k)
        pairings[k] = m
    if h.dim(n) != 1:
        return None, PoincareDualityFailure("H^n is not one-dimensional", n)
    # in degrees (0, n) the pairing is a unit class times H^n: nondegenerate
    pairings[0], pairings[n] = _pairing(halg, 0, n), _pairing(halg, n, n)
    return PoincareDualityCertificate(n, {0: halg.field.one}, pairings), None


def _pairing(halg, k, n):
    """H^k x H^(n-k) -> H^n as a matrix: the coefficient of the first
    class of H^n in each product."""
    rows = [{} for _ in range(halg.space.dim(k))]
    for (d1, i, d2, j), v in halg.both_orders.items():
        if d1 == k and d2 == n - k and 0 in v:
            rows[i][j] = v[0]
    return Matrix.sparse(halg.field, rows, halg.space.dim(n - k))


def quotient_complex(complex_, ideal):
    """Quotient of a complex by a d-closed subcomplex spanned by basis
    elements, given as degree -> basis indices; the quotient keeps the
    other basis elements, in index order.

    Returns (quotient complex, projection map, degree -> {kept index:
    its position in the quotient basis})."""
    space = complex_.space
    field = space.field
    blocks = complex_.d.blocks
    pos = {}
    for d in space.degrees():
        listed = set(ideal.get(d, ()))
        pos[d] = {i: k for k, i in enumerate(
            [i for i in range(space.dim(d)) if i not in listed])}
    # closed under d: no kept row of d out of a listed degree has an
    # entry in a listed column
    for d in ideal:
        m = blocks.get(d)
        if m is not None and any(c not in pos[d] for r in pos[d + 1] for c in m.rows[r]):
            raise AlgebraError("subspace not closed under d at degree %d" % d)
    qspace = GradedVectorSpace(field, space.window,
                               {d: len(p) for d, p in pos.items() if p},
                               {d: [space.label(d, i) for i in p]
                                for d, p in pos.items() if p})
    # d and the projection restricted to the kept rows and columns
    dblocks = {}
    for d in qspace.degrees():
        m, p = blocks.get(d), pos[d]
        if m is not None:
            rows = [{p[c]: x for c, x in m.rows[r].items() if c in p} for r in pos[d + 1]]
            dblocks[d] = Matrix.sparse(field, rows, len(p))
    qcx = CochainComplex(qspace, GradedLinearMap(qspace, qspace, 1, dblocks))
    one = field.one
    proj = GradedLinearMap(space, qspace, 0,
                           {d: Matrix.sparse(field, [{i: one} for i in p], space.dim(d))
                            for d, p in pos.items()})
    return qcx, proj, pos


def left_factors(reps):
    """(degree, index, representative) of each class of reps, degree ->
    list of representatives, as the left factors of `projected_table`."""
    return [(d, i, v) for d, vs in reps.items() for i, v in enumerate(vs)]


def projected_table(lefts, reps, reduce, mul, hi):
    """Structure constants over classes, the one place where products of
    classes are reduced: for each left factor (d1, i1, v1) and each
    representative reps[d2][i2] with d1 + d2 <= hi, the nonzero
    reduce(d1 + d2, mul(d1, v1, d2, reps[d2][i2])) under (d1, i1, d2, i2).
    A target degree with no classes is skipped."""
    table = {}
    for d1, i1, v1 in lefts:
        for d2, r2 in reps.items():
            d = d1 + d2
            if d > hi or not reps.get(d):
                continue
            for i2, z2 in enumerate(r2):
                w = reduce(d, mul(d1, v1, d2, z2))
                if w:
                    table[(d1, i1, d2, i2)] = w
    return table


def quotient_cdga(a, ideal):
    """Quotient of a CDGA by a d-closed ideal spanned by basis elements,
    given as degree -> basis indices.

    Checks closure under d and under multiplication; returns (quotient,
    projection morphism).  Closed, the span is a differential ideal, so a
    quotient of a CDGA is one and is not re-checked.  Its product is the
    stored products of two kept basis elements, projected.  When no
    index is listed the ideal is zero, and the quotient is `a` itself
    with the identity: nothing is built, so nothing new is there to
    check."""
    if not any(ideal.values()):
        return a, CdgaMorphism.identity(a)
    qcx, proj, pos = quotient_complex(a.complex, ideal)
    # closed under products: every stored product with a listed factor
    # lands in the ideal; both orders are stored, so the right factor is
    # enough.  escape: listed element -> lowest degree of a multiple that
    # leaves the ideal
    escape, product = {}, {}
    for (d1, i1, d2, i2), v in a.both_orders.items():
        p1, p2, p = pos[d1], pos[d2], pos[d1 + d2]
        if i2 not in p2:
            if any(k in p for k in v):
                t = d1 + d2
                escape[(d2, i2)] = min(t, escape.get((d2, i2), t))
        elif i1 in p1:
            w = {p[k]: x for k, x in v.items() if k in p}
            if w:
                product[(d1, p1[i1], d2, p2[i2])] = w
    for d, listed in ideal.items():
        for i in listed:
            if (d, i) in escape:
                raise AlgebraError("subspace is not an ideal (degree %d)" % escape[(d, i)])
    unit = {pos[0][i]: x for i, x in a.unit.items() if i in pos[0]}
    q = Cdga(a.field, qcx, product, unit)
    return q, CdgaMorphism(a, q, proj)


def quotient_by_acyclic_ideal(a, above):
    """Surjective quasi-isomorphism onto a quotient vanishing above
    degree above+1, with acyclic kernel concentrated in degrees > above.

    Needs H^(>above+1)(a) = 0 so the kernel can be acyclic; H^(above+1)
    itself may be nonzero.  The truncation is read first: when it lists
    no index, `a` has no basis element above degree above+1 and only
    cocycles in that degree, so it already vanishes where the quotient
    must, and (a, identity) is returned with no cohomology computed.
    """
    if not a.is_connected():
        raise AlgebraError("acyclic-ideal quotient needs a connected algebra")
    ideal = truncation_spans(a.complex, above + 1)
    if not any(ideal.values()):
        return a, CdgaMorphism.identity(a)
    coh = cohomology(a.complex)
    for d in sorted(coh.dims):
        if d >= above + 2:
            raise AlgebraError("H^%d != 0: cannot build an acyclic ideal above "
                               "degree %d" % (d, above))
    q, proj = quotient_cdga(a, ideal)
    bad = quasi_isomorphism_failure(proj.map, coh, cohomology(q.complex))
    if bad is not None:
        raise InternalError("acyclic-ideal projection not a quasi-isomorphism "
                            "(degree %d)" % bad)
    return q, proj


def direct_sum_cdga(parts):
    """Product algebra of finitely many CDGAs (componentwise operations).

    The result is connected only for a single part; the unit is the sum
    of the component units.  The axioms hold summand by summand, so the
    sum is not re-checked."""
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
