import gc
import importlib
import os
import random
import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import builders
from builders import (complex_projective, product_s2_s4, sphere, sullivan_cp2,
                      torus_s1_s7, wedge_s2_s4)
from pemb import algebra
from pemb.algebra import (AlgebraError, Cdga, _groebner_basis, _merge_sign,
                          _mono_degree, _mono_label, check_poincare_duality,
                          cohomology_algebra, direct_sum_cdga,
                          materialize_free_cdga, quotient_by_acyclic_ideal,
                          quotient_cdga)
from pemb.checks import check_cdga
from pemb.fields import PrimeField, QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace, cohomology, truncation_spans)
from pemb.linalg import Matrix, dense
from pemb.parser import parse
from dense import (add_vec, dense_from_cols, is_zero_vec, mul_basis,
                   reference, scale_vec, unit_vec)
from test_linalg import DenseQuotienter


def test_cp2_truncated_polynomial():
    a = complex_projective(2, hi=8)
    assert a.space.dims == {0: 1, 2: 1, 4: 1}
    # x * x = x^2
    assert mul_basis(a, 2, 0, 2, 0) == {0: QQ.one}
    assert mul_basis(a, 2, 0, 4, 0) == {}  # x^3 = 0, degree 6 empty


def test_sphere_six():
    a = sphere(6)
    assert a.space.dims == {0: 1, 6: 1}
    assert cohomology(a.complex).dims == {0: 1, 6: 1}


def test_odd_sphere_exterior():
    a = sphere(3)
    assert a.space.dims == {0: 1, 3: 1}
    # odd generator squares to zero automatically
    assert mul_basis(a, 3, 0, 3, 0) == {}


def test_torus_s1_s7_signs():
    a = torus_s1_s7()
    assert a.space.dims == {0: 1, 1: 1, 7: 1, 8: 1}
    ab = mul_basis(a, 1, 0, 7, 0)
    ba = mul_basis(a, 7, 0, 1, 0)
    assert ab == {0: QQ.one}
    assert ba == {0: QQ.of(-1)}
    a.validate()


def test_sullivan_cp2_cohomology():
    a = sullivan_cp2()
    assert cohomology(a.complex).dims == {0: 1, 2: 1, 4: 1}
    h, _ = cohomology_algebra(a)
    # H must be Q[x]/x^3 with the same structure constants
    b = complex_projective(2, hi=8)
    assert h.space.dims == b.space.dims
    assert mul_basis(h, 2, 0, 2, 0) == mul_basis(b, 2, 0, 2, 0)


def test_cohomology_algebra_of_zero_differential_is_itself():
    a = product_s2_s4()
    h, _ = cohomology_algebra(a)
    assert h.space.dims == a.space.dims
    assert mul_basis(h, 2, 0, 4, 0) == mul_basis(a, 2, 0, 4, 0)


def acyclic_pair_cdga():
    """Unit plus a d-paired generator couple x1 -> y2, products truncated."""
    from pemb.graded import (CochainComplex, GradedLinearMap, GradedVectorSpace)
    from pemb.linalg import Matrix
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 2), {0: 1, 1: 1, 2: 1})
    d = GradedLinearMap(sp, sp, 1, {1: Matrix(QQ, [[1]])})
    product = {(0, 0, 0, 0): {0: QQ.one}, (0, 0, 1, 0): {0: QQ.one},
               (0, 0, 2, 0): {0: QQ.one}}
    return Cdga(QQ, CochainComplex(sp, d), product, {0: QQ.one})


def test_cohomology_algebra_acyclic():
    # (x2, y1 ; dy = x) on an odd window: cohomology is just Q
    a = materialize_free_cdga(QQ, [("x", 2), ("y", 1)], {"y": {(0,): 1}}, [],
                              DegreeWindow(0, 4))
    h, _ = cohomology_algebra(a)
    assert h.space.dims == {0: 1}


def test_pd_sphere():
    cert, fail = check_poincare_duality(sphere(6), 6)
    assert fail is None
    assert cert.n == 6
    assert cert.pairings[0].rank() == 1


def test_pd_cp2():
    cert, fail = check_poincare_duality(complex_projective(2, hi=8), 4)
    assert fail is None
    assert cert.pairings[2] .rank() == 1


def test_pd_wedge_fails():
    cert, fail = check_poincare_duality(wedge_s2_s4(hi=7), 6)
    assert cert is None
    assert fail.degree == 2
    assert "pairing" in fail.reason


def test_pd_product():
    cert, fail = check_poincare_duality(product_s2_s4(), 6)
    assert fail is None


def test_pd_wrong_dimension():
    cert, fail = check_poincare_duality(sphere(6, hi=8), 8)
    assert cert is None


def test_pd_is_certified_on_an_h_algebra():
    """Duality is read off an algebra with d = 0, the H-algebra the
    caller built; the fundamental class is its H^n generator."""
    a = sullivan_cp2()
    with pytest.raises(AlgebraError, match="d = 0"):
        check_poincare_duality(a, 4)
    cert, fail = check_poincare_duality(cohomology_algebra(a)[0], 4)
    assert fail is None and cert.fundamental_class == {0: QQ.one}


def test_quotient_by_acyclic_ideal_identity_case():
    """Nothing of CP^2 lies above degree 5, so the quotient is the algebra
    itself with the identity, as is a quotient by empty spans."""
    a = complex_projective(2, hi=8)
    q, proj = quotient_by_acyclic_ideal(a, 4)
    assert q.space.dims == a.space.dims
    assert q is a and proj.source is proj.target is a
    assert proj.map == GradedLinearMap.identity(a.space)
    q, proj = quotient_cdga(a, {4: [], 6: []})
    assert q is a and proj.map == GradedLinearMap.identity(a.space)


def test_quotient_by_acyclic_ideal_sullivan():
    a = sullivan_cp2(hi=8)
    q, proj = quotient_by_acyclic_ideal(a, 4)
    assert all(d <= 5 for d in q.space.dims)
    assert cohomology(q.complex).dims == {0: 1, 2: 1, 4: 1}


def test_quotient_by_acyclic_ideal_acyclic_algebra():
    a = acyclic_pair_cdga()
    q, proj = quotient_by_acyclic_ideal(a, 0)
    assert cohomology(q.complex).dims == {0: 1}
    assert q.space.dims == {0: 1}


def test_truncation_keeps_the_pivot_columns_of_d():
    """a, b in degree 2 and c in degree 3 with da = db = c: above degree 2
    the truncation spans keep a, the pivot column of d, so the acyclic
    ideal is <a, c>, and the certified quotient keeps b."""
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 3), {0: 1, 2: 2, 3: 1},
                           {0: ["1"], 2: ["a", "b"], 3: ["c"]})
    d = GradedLinearMap(sp, sp, 1, {2: Matrix(QQ, [[1, 1]])})
    product = {(0, 0, e, i): {i: QQ.one} for e in sp.degrees() for i in range(sp.dim(e))}
    a = Cdga(QQ, CochainComplex(sp, d), product, {0: QQ.one})
    assert truncation_spans(a.complex, 2) == {2: [0], 3: [0]}
    q, proj = quotient_by_acyclic_ideal(a, 1)
    assert q.space.labels == {0: ("1",), 2: ("b",)}
    assert proj.map.block(2) == Matrix(QQ, [[0, 1]])
    assert cohomology(q.complex).dims == cohomology(a.complex).dims == {0: 1, 2: 1}


def test_quotient_rejects_high_cohomology():
    a = sphere(6)
    with pytest.raises(AlgebraError):
        quotient_by_acyclic_ideal(a, 2)


def test_materialize_rejects_bad_differential():
    # d(x) = y^2 has degree 2 on a degree-1 generator: not homogeneous of x+1
    with pytest.raises(AlgebraError):
        materialize_free_cdga(QQ, [("x", 1), ("y", 1)], {"x": {(1, 1): 1}}, [],
                              DegreeWindow(0, 4))


def test_materialize_over_f2():
    f2 = PrimeField(2)
    a = sphere(6, field=f2)
    assert a.space.dims == {0: 1, 6: 1}
    a.validate()


def test_direct_sum():
    a = direct_sum_cdga([sphere(7, hi=16), sphere(7, hi=16)])
    assert a.space.dims == {0: 2, 7: 2}
    assert not a.is_connected()
    # units multiply componentwise
    assert mul_basis(a, 0, 0, 7, 1) == {}
    assert mul_basis(a, 0, 0, 7, 0) == {0: QQ.one}
    assert a.unit == {0: QQ.one, 1: QQ.one}


def test_validation_catches_broken_commutativity():
    a = sphere(3)
    bad = dict(a.product)
    bad[(3, 0, 3, 0)] = {}  # fine, degree 6 outside window; break unit instead
    bad[(0, 0, 3, 0)] = {0: QQ.of(2)}
    with pytest.raises(AlgebraError, match=r"unit law fails on e3"):
        Cdga(a.field, a.complex, bad, a.unit).validate()


def test_cdga_rejects_keys_and_indices_outside_the_basis():
    """The constructor takes a table as it is; `validate` names an index
    outside the basis through `check_cdga`, before any axiom, here before
    the unit law that 1 * e3 = 2 e3 breaks, and a unit outside degree 0
    before the unit laws."""
    a = sphere(3)                                  # basis 1, e3 on the window 0..4
    message = r"product of \(\d,\d\)\*\(\d,\d\) names no basis element"
    for bad in ({(3, 1, 0, 0): {0: QQ.one}},      # no second element in degree 3
                {(0, 0, 3, 0): {1: QQ.one}},      # no second index in degree 3
                {(3, 0, 3, 0): {0: QQ.one}}):     # degree 6 is empty
        product = {**a.product, (0, 0, 3, 0): {0: QQ.of(2)}, **bad}
        b = Cdga(a.field, a.complex, product, a.unit)
        assert b.product == product
        witness = check_cdga(b)
        assert witness.axiom == "algebra basis" and re.fullmatch(message, str(witness))
        with pytest.raises(AlgebraError, match=message):
            b.validate()
    with pytest.raises(AlgebraError, match="unit must be a nonzero degree-0 vector"):
        Cdga(a.field, a.complex, a.product, {1: QQ.one}).validate()


# The earlier `materialize_free_cdga`, which built the whole free algebra
# in each degree, every multiple of every relation, and every image and
# product as a dense vector of monomial-space length, and reduced them
# with a dense quotient, is the reference for the Groebner-basis one.  It
# returns the dense tables: the product and the unit, with the space,
# the complex and the kept monomials of each degree.


NOT_A_MONOMIAL = ("%s has a term that is not a sorted monomial of the generators, "
                  "or that repeats an odd one")


def dense_poly_to_vec(field, poly, mono_index, dim, deg, gen_degs, what):
    """poly: dict[index-tuple] -> scalar, all monomials of one degree."""
    v = [field.zero] * dim
    for mono, coeff in poly.items():
        if _mono_degree(mono, gen_degs) != deg:
            raise AlgebraError("%s is not homogeneous of degree %d" % (what, deg))
        if mono not in mono_index:
            raise AlgebraError(NOT_A_MONOMIAL % what)
        _, i = mono_index[mono]
        v[i] = v[i] + field.of(coeff)
    return tuple(v)


def dense_materialize_free_cdga(field, generators, diffs, relations, window):
    """Build the free graded-commutative algebra on `generators`, impose
    the differential `diffs` (name -> polynomial) and quotient by the
    ideal generated by `relations`, all within the degree window.

    Polynomials are dicts mapping sorted generator-index tuples to
    coefficients.  Over F_p it computes with boxed scalars.
    """
    field = reference(field)
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
            dgen[g] = dense_poly_to_vec(field, poly, mono_index, dims.get(target_deg, 0),
                                        target_deg, gen_degs, "d(%s)" % name)

    def d_mono(mono):
        deg = _mono_degree(mono, gen_degs)
        out = [field.zero] * dims.get(deg + 1, 0)
        if deg + 1 > window.hi:
            return tuple(out)
        for j, g in enumerate(mono):
            if g not in dgen:
                continue
            sign = field.sign(gen_degs[g] * _mono_degree(mono[:j], gen_degs))
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
    for rn, poly in enumerate(relations):
        if not poly:
            continue
        rel_deg = {_mono_degree(m, gen_degs) for m in poly}
        if len(rel_deg) != 1:
            raise AlgebraError("relation %d is not homogeneous" % rn)
        (e,) = rel_deg
        if e > window.hi:
            continue
        if any(rm not in mono_index for rm in poly):
            raise AlgebraError(NOT_A_MONOMIAL % ("relation %d" % rn))
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

    reducers = {d: DenseQuotienter(field, spans.get(d, []), n) for d, n in dims.items()}

    def d_vec(d, v):
        out = (field.zero,) * dims.get(d + 1, 0)
        for i, c in enumerate(v):
            if c != 0:
                out = add_vec(out, scale_vec(c, d_mono(monos_by_degree[d][i])))
        return out

    for d, vs in spans.items():
        red = reducers.get(d + 1)
        if red is not None and not all(red.contains(d_vec(d, v)) for v in vs):
            raise AlgebraError("differential does not preserve the relation ideal "
                               "in degree %d" % (d + 1))

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
        dblocks[d] = dense_from_cols(field, cols, space.dim(d + 1))
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
    kept = {d: [monos_by_degree[d][i] for i in red.keep]
            for d, red in reducers.items() if red.keep}
    return space, complex_, product, unit, kept


# (generators, differential, relations, top degree).  x2, y3 with
# dy = x^2 and the ideal (x^3, x y), which d preserves as d(x y) = x^3;
# x2, y2, z3 with dz = x y + 2 y^2 and an ideal on cocycles.
PRESENTATIONS = [
    ([("x", 2), ("y", 3)], {"y": {(0, 0): 1}}, [{(0, 0, 0): 1}, {(0, 1): 1}], 12),
    ([("x", 2), ("y", 2), ("z", 3)], {"z": {(0, 1): 1, (1, 1): 2}},
     [{(0, 0): 1}, {(1, 1): 1, (0, 1): -1}], 13),
]


def assert_same_algebra(a, ref):
    space, complex_, product, unit, kept = ref
    assert (a.space.dims, a.space.labels) == (space.dims, space.labels)
    assert {k: dense(a.field, v, a.space.dim(k[0] + k[2]))
            for k, v in a.product.items()} == product
    assert a.complex.d.blocks == complex_.d.blocks
    assert dense(a.field, a.unit, a.space.dim(0)) == unit
    assert a.presentation.standard == kept


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
def test_materialize_matches_dense_reference(field, monkeypatch):
    calls = [(field, gens, diffs, rels, DegreeWindow(0, hi))
             for gens, diffs, rels, hi in PRESENTATIONS]

    def recorded(*args):
        calls.append(args)
        return materialize_free_cdga(*args)

    monkeypatch.setattr(builders, "materialize_free_cdga", recorded)
    for n in (2, 3, 5, 6):
        builders.sphere(n, field=field)
    builders.complex_projective(3, field=field)
    for build in (builders.wedge_s2_s4, builders.product_s2_s4, builders.sullivan_cp2,
                  builders.torus_s1_s7):
        build(field=field)
    assert len(calls) == len(PRESENTATIONS) + 9
    for args in calls:
        assert_same_algebra(materialize_free_cdga(*args), dense_materialize_free_cdga(*args))


# (generators, d, relations, top degree, the generators g with g^2 in the
# Groebner basis): x^2, x^2 - y^2, xy, x^2 - y^2 with xy (whose
# S-polynomial adds y^3), x^2 with xz - y^2 (which adds x y^2 and y^4),
# x^2 with an odd generator and d, and (S^2)^3
SQUARED = [
    ([("x", 2), ("y", 2)], {}, [{(0, 0): 1}], 8, {0}),
    ([("x", 2), ("y", 2)], {}, [{(0, 0): 1, (1, 1): -1}], 8, set()),
    ([("x", 2), ("y", 2)], {}, [{(0, 1): 1}], 8, set()),
    ([("x", 2), ("y", 2)], {}, [{(0, 0): 1, (1, 1): -1}, {(0, 1): 1}], 8, set()),
    ([("x", 2), ("y", 2), ("z", 2)], {}, [{(0, 0): 1}, {(0, 2): 1, (1, 1): -1}], 10, {0}),
    ([("x", 2), ("a", 1), ("y", 3)], {"y": {(0, 0): 1}}, [{(0, 0): 1}], 9, {0}),
    ([("x", 2), ("y", 2), ("z", 2)], {}, [{(g, g): 1} for g in range(3)], 8, {0, 1, 2}),
]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_pairs_skipped_on_squares_match_dense_reference(field):
    """The product loop skips a pair of standard monomials that share a
    generator g with g^2 in the Groebner basis; the unskipped dense
    reference builds the same algebra, with or without such a g."""
    for gens, diffs, rels, hi, squared in SQUARED:
        args = (field, gens, diffs, rels, DegreeWindow(0, hi))
        a = materialize_free_cdga(*args)
        assert_same_algebra(a, dense_materialize_free_cdga(*args))
        assert {lm[0] for lm, g in a.presentation.groebner_basis
                if len(g) == 1 and lm == lm[:1] * 2} == squared


def test_merges_on_sphere_products_follow_the_stored_products(monkeypatch):
    """(S^2)^k, k = 2..6: the pairs that share a generator x_i, with x_i^2
    a relation, are skipped before they are merged, so the merges number
    the 3^k stored products and at most 3k more."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _merge_sign(*args)

    monkeypatch.setattr(algebra, "_merge_sign", counted)
    for k in range(2, 7):
        del calls[:]
        gens = [("x%d" % i, 2) for i in range(k)]
        a = materialize_free_cdga(QQ, gens, {}, [{(i, i): 1} for i in range(k)],
                                  DegreeWindow(0, 4 * k + 5))
        assert len(a.product) == 3 ** k
        assert len(calls) <= len(a.product) + 3 * k, k


def test_materialize_rejects_an_ideal_d_does_not_preserve():
    # dy = x^2 and the relation y: d(y) = x^2 is not in the ideal (y)
    args = (QQ, [("x", 2), ("y", 3)], {"y": {(0, 0): 1}}, [{(1,): 1}], DegreeWindow(0, 9))
    for materialize in (materialize_free_cdga, dense_materialize_free_cdga):
        with pytest.raises(AlgebraError, match="differential does not preserve the "
                           "relation ideal in degree 4$"):
            materialize(*args)


def free_monomials(gen_degs, deg):
    """Sorted index tuples of degree deg with no odd generator repeated."""
    return [m for k in range(deg + 1)
            for m in combinations_with_replacement(range(len(gen_degs)), k)
            if _mono_degree(m, gen_degs) == deg
            and not any(a == b and gen_degs[a] % 2 for a, b in zip(m, m[1:]))]


def random_presentation(field, rng, closed):
    """Four or five generators of degrees 1 and 2, all cocycles but one,
    y, whose differential is a random polynomial in the others, and two
    or three random relations of two or three terms among the others, so
    that d preserves their ideal.  Unless `closed`, one more relation has
    only terms with y, and d(r) may leave the ideal."""
    degs = [rng.choice((1, 1, 2)) for _ in range(rng.randint(4, 5))]

    def poly(deg, nterms, among):
        monos = [m for m in free_monomials(degs, deg) if among(m)]
        return {m: rng.choice((-1, 1, 2, 3))
                for m in rng.sample(monos, min(nterms, len(monos)))}

    # y is a generator whose differential can be nonzero, when there is one
    y = max(range(len(degs)), key=lambda g: (any(
        g not in m for m in free_monomials(degs, degs[g] + 1)), rng.random()))
    others = lambda m: y not in m
    diffs = {"g%d" % y: poly(degs[y] + 1, 2, others)}
    rels = [poly(rng.randint(2, 4), rng.choice((2, 3)), others)
            for _ in range(rng.randint(2, 3))]
    if not closed:
        rels.append(poly(degs[y] + rng.randint(1, 2), rng.randint(1, 2),
                         lambda m: y in m))
    rels = [r for r in rels if r]
    gens = [("g%d" % g, d) for g, d in enumerate(degs)]
    return field, gens, diffs, rels, DegreeWindow(0, rng.randint(6, 8))


def materialized_or_error(materialize, args):
    try:
        return materialize(*args)
    except AlgebraError as e:
        return str(e)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
def test_random_presentations_match_dense_reference(field):
    """Odd generators, relations that are not monomials (S-polynomials and
    the odd multiples x * g add to the basis) and, in half the draws, an
    ideal d need not preserve, which must fail in the same degree."""
    rng = random.Random("groebner:%s" % field)
    grew = failed = 0
    for n in range(32):
        args = random_presentation(field, rng, closed=n % 2 == 0)
        got = materialized_or_error(materialize_free_cdga, args)
        ref = materialized_or_error(dense_materialize_free_cdga, args)
        if isinstance(ref, str):
            assert got == ref
            failed += ref.startswith("differential does not preserve")
        else:
            assert not isinstance(got, str), got
            assert_same_algebra(got, ref)
            # a leading monomial that no relation has came from the closure
            lms = {lm for lm, _ in got.presentation.groebner_basis}
            grew += bool(lms - {min(r) for r in args[3]})
    assert grew and failed


def test_groebner_basis_closes_s_pairs_and_odd_multiples():
    # x, y of degree 2 with x^2 - y^2 and x y: the S-polynomial
    # y (x^2 - y^2) - x (x y) = -y^3 joins the basis
    basis = _groebner_basis(QQ, [{(0, 0): 1, (1, 1): -1}, {(0, 1): 1}], [2, 2], 8)
    assert basis == [((0, 0), {(0, 0): 1, (1, 1): -1}), ((0, 1), {(0, 1): 1}),
                     ((1, 1, 1), {(1, 1, 1): 1})]
    # a, b odd of degree 1, x of degree 2, a b + x: a (a b + x) = a x and
    # b (a b + x) = b x, led by lower terms than a a b = a b b = 0,
    basis = _groebner_basis(QQ, [{(0, 1): 1, (2,): 1}], [1, 1, 2], 6)
    # and then the S-polynomial x (a b + x) + b (a x) = x^2 (as x = -a b)
    assert basis == [((0, 1), {(0, 1): 1, (2,): 1}), ((0, 2), {(0, 2): 1}),
                     ((1, 2), {(1, 2): 1}), ((2, 2), {(2, 2): 1})]
    # truncated at degree 3, the odd multiples stay out
    assert len(_groebner_basis(QQ, [{(0, 1): 1, (2,): 1}], [1, 1, 2], 2)) == 1
    # reduced: x^2 + x y loses its tail to the later x y
    basis = _groebner_basis(QQ, [{(0, 0): 1, (0, 1): 1}, {(0, 1): 1}], [2, 2], 8)
    assert basis == [((0, 0), {(0, 0): 1}), ((0, 1), {(0, 1): 1})]


def test_materialize_rejects_a_relation_that_kills_the_unit():
    args = (QQ, [("x", 2)], {}, [{(0,): 1}, {(): 3}], DegreeWindow(0, 4))
    for materialize in (materialize_free_cdga, dense_materialize_free_cdga):
        with pytest.raises(AlgebraError, match="^relations kill the unit$"):
            materialize(*args)


def test_relation_terms_are_sorted_monomials_as_terms_of_d_are():
    """y x + x y is zero in the free algebra on odd x, y, but a merge of
    its terms into the empty monomial, which applies no Koszul sign,
    makes it 2 x y and kills x y.  A relation, like d, refuses a term
    that is not a sorted monomial or that repeats an odd generator."""
    gens, window = [("x", 1), ("y", 1)], DegreeWindow(0, 3)
    for materialize in (materialize_free_cdga, dense_materialize_free_cdga):
        for diffs, rels, what in (({}, [{(1, 0): 1, (0, 1): 1}], "relation 0"),
                                  ({}, [{(0, 1): 1}, {(0, 0): 1}], "relation 1"),
                                  ({"x": {(1, 0): 1}}, [], r"d\(x\)")):
            with pytest.raises(AlgebraError, match="^%s has a term that is not a sorted "
                               "monomial of the generators, or that repeats an odd one$"
                               % what):
                materialize(QQ, gens, diffs, rels, window)
    assert materialize_free_cdga(QQ, gens, {}, [], window).space.dims == {0: 1, 1: 2, 2: 1}


def test_leibniz_sign_of_an_even_generator_after_an_odd_one():
    # a1, x2, y3 with d x = y: d(a x) = -a y, the sign of moving d past a
    a = materialize_free_cdga(QQ, [("a", 1), ("x", 2), ("y", 3)], {"x": {(2,): 1}}, [],
                              DegreeWindow(0, 6))
    ax, ay = a.space.labels[3].index("a*x"), a.space.labels[4].index("a*y")
    assert a.d_vec(3, {ax: QQ.one}) == {ay: QQ.minus_one}


def test_materialize_leaves_no_reference_cycles():
    """Nothing a materialization builds outlives it in a reference cycle,
    so its monomial lists are freed as soon as it returns."""
    gens, diffs, rels, hi = PRESENTATIONS[0]
    gc.collect()
    gc.disable()
    try:
        materialize_free_cdga(QQ, gens, diffs, rels, DegreeWindow(0, hi))
        assert gc.collect() == 0
    finally:
        gc.enable()


def load_ladder():
    """The benchmark's problem ladder, `bench/ladder.py`."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    try:
        return importlib.import_module("ladder")
    finally:
        sys.path.pop(0)


def test_d_runs_once_per_standard_monomial_and_relation_term(monkeypatch):
    calls = []
    d_mono = algebra._d_mono

    def counted(*args):
        calls.append(args[1])
        return d_mono(*args)

    monkeypatch.setattr(algebra, "_d_mono", counted)
    gens, diffs, rels, hi = PRESENTATIONS[0]
    a = materialize_free_cdga(QQ, gens, diffs, rels, DegreeWindow(0, hi))
    assert len(calls) == a.space.total_dim() + sum(len(r) for r in rels)
    # (S^2)^4 in S^20: the ambient's 2 standard monomials, the target's 16
    # and its 4 one-term relations x_i^2
    del calls[:]
    parse(load_ladder().build("sphere_quotient", 1).problems["spheres4"].text)
    assert len(calls) == 2 + 16 + 4


CP12_IN_S48 = """field rational
window 0 49
cdga R {
  generator e deg 48
}
cdga Q {
  generator x deg 2
  relation x^13
}
morphism phi : R -> Q {
  e -> 0
}
problem {
  ambient R dim 48
  embedded Q via phi
}
"""


def test_largest_rungs_enumerate_only_their_standard_monomials():
    """(S^2)^6 in S^28, T^7 in S^18, CP^12 in S^48 and 64 disjoint S^3 in
    S^10: the monomials enumerated in each degree are the basis (the
    target of (S^2)^6 has C(20, 6) = 38,760 free monomials up to degree
    29 and keeps 64); each parses, so none reaches the budget."""
    ladder = load_ladder()
    rng = random.Random(1)
    for text, largest in ((ladder.sphere_product(rng, 6, 2, 28).text, 2 ** 6),
                          (ladder.sphere_product(rng, 7, 1, 18).text, 2 ** 7),
                          (CP12_IN_S48, 13),
                          (ladder.menorah(rng, 64, 3, 10, 10007).text, 2)):
        algebras = [a.cdga for a in parse(text).algebras.values()]
        for a in algebras:
            assert {d: len(ms) for d, ms in a.presentation.standard.items()} == a.space.dims
        assert max(a.space.total_dim() for a in algebras) == largest
