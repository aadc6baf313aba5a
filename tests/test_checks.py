"""pemb.checks against the exhaustive loops it replaced.

The dense_* functions are those loops, kept as the reference: they
visit every basis tuple in order, on the dense views of `dense`, and
return the first failure as (message, basis, degree, dense defect), or
(message,) for a failure that names no basis tuple.
"""

import random
from functools import partial

import pytest

from builders import (complex_projective, product_s2_s4, random_semifree, sphere,
                      sullivan_cp2, torus_s1_s7, wedge_s2_s4)
from dense import (DenseCdga, DenseModule, DenseMorphism, add_vec, is_chain_map,
                   is_zero_vec, mul_basis, scale_vec, sparse, sub_vec)
from pemb import checks, tables
from pemb.algebra import (AlgebraError, Cdga, CdgaMorphism, direct_sum_cdga,
                          materialize_free_cdga)
from pemb.checks import (check_cdga, check_cdga_morphism, check_module,
                         check_module_morphism)
from pemb.fields import PrimeField, QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         GradedVectorSpace)
from pemb.linalg import Matrix
from pemb.modules import (DgModule, DgModuleMorphism, ModuleError,
                          algebra_as_module)


# -- reference: the exhaustive loops ---------------------------------------


def dense_cdga(a):
    a = DenseCdga(a)
    sp = a.space
    if sp.window.lo < 0:
        return ("algebra must be nonnegatively graded",)
    if len(a.unit) != sp.dim(0) or is_zero_vec(a.unit):
        return ("unit must be a nonzero degree-0 vector",)
    if not is_zero_vec(a.d_vec(0, a.unit)):
        return ("unit must be a cocycle",)
    degs = sp.degrees()
    for d in degs:
        for i in range(sp.dim(d)):
            e = a.basis_vec(d, i)
            for text, v in (("unit law fails on %s", a.mul_vec(0, a.unit, d, e)),
                            ("unit law (right) fails on %s",
                             a.mul_vec(d, e, 0, a.unit))):
                if v != e:
                    return (text % sp.label(d, i), ((d, i),), d, sub_vec(v, e))
    for d1 in degs:
        for d2 in degs:
            if d1 + d2 > sp.window.hi:
                continue
            sign = a.field.sign(d1 * d2)
            for i1 in range(sp.dim(d1)):
                for i2 in range(sp.dim(d2)):
                    ab = a.mul_basis(d1, i1, d2, i2)
                    ba = scale_vec(sign, a.mul_basis(d2, i2, d1, i1))
                    if ab != ba:
                        return ("commutativity fails on (%s, %s)"
                                % (sp.label(d1, i1), sp.label(d2, i2)),
                                ((d1, i1), (d2, i2)), d1 + d2, sub_vec(ab, ba))
    for d1 in degs:
        for d2 in degs:
            for d3 in degs:
                if d1 + d2 + d3 > sp.window.hi:
                    continue
                for i1 in range(sp.dim(d1)):
                    x = a.basis_vec(d1, i1)
                    for i2 in range(sp.dim(d2)):
                        y = a.basis_vec(d2, i2)
                        xy = a.mul_vec(d1, x, d2, y)
                        for i3 in range(sp.dim(d3)):
                            z = a.basis_vec(d3, i3)
                            lhs = a.mul_vec(d1 + d2, xy, d3, z)
                            rhs = a.mul_vec(d1, x, d2 + d3, a.mul_vec(d2, y, d3, z))
                            if lhs != rhs:
                                return ("associativity fails on (%s, %s, %s)"
                                        % (sp.label(d1, i1), sp.label(d2, i2),
                                           sp.label(d3, i3)),
                                        ((d1, i1), (d2, i2), (d3, i3)),
                                        d1 + d2 + d3, sub_vec(lhs, rhs))
    for d1 in degs:
        for d2 in degs:
            if d1 + d2 + 1 > sp.window.hi:
                continue
            sgn = a.field.sign(d1)
            for i1 in range(sp.dim(d1)):
                x = a.basis_vec(d1, i1)
                for i2 in range(sp.dim(d2)):
                    y = a.basis_vec(d2, i2)
                    lhs = a.d_vec(d1 + d2, a.mul_vec(d1, x, d2, y))
                    rhs = add_vec(a.mul_vec(d1 + 1, a.d_vec(d1, x), d2, y),
                                  scale_vec(sgn, a.mul_vec(d1, x, d2 + 1,
                                                           a.d_vec(d2, y))))
                    if lhs != rhs:
                        return ("Leibniz fails on (%s, %s)"
                                % (sp.label(d1, i1), sp.label(d2, i2)),
                                ((d1, i1), (d2, i2)), d1 + d2 + 1, sub_vec(lhs, rhs))
    return None


def dense_cdga_morphism(f):
    f = DenseMorphism(f, DenseCdga)
    if f.map.shift != 0:
        return ("morphism must preserve degree",)
    if not is_chain_map(f.map, f.source.complex, f.target.complex):
        return ("morphism is not a chain map",)
    if f.apply(0, f.source.unit) != f.target.unit:
        return ("morphism does not preserve the unit",)
    src, tgt = f.source, f.target
    sp = src.space
    hi = min(sp.window.hi, tgt.space.window.hi)
    for d1 in sp.degrees():
        for d2 in sp.degrees():
            if d1 + d2 > hi:
                continue
            for i1 in range(sp.dim(d1)):
                x = src.basis_vec(d1, i1)
                for i2 in range(sp.dim(d2)):
                    y = src.basis_vec(d2, i2)
                    lhs = f.apply(d1 + d2, src.mul_vec(d1, x, d2, y))
                    rhs = tgt.mul_vec(d1, f.apply(d1, x), d2, f.apply(d2, y))
                    if lhs != rhs:
                        return ("morphism not multiplicative on (%s, %s)"
                                % (sp.label(d1, i1), sp.label(d2, i2)),
                                ((d1, i1), (d2, i2)), d1 + d2, sub_vec(lhs, rhs))
    return None


def dense_module(m):
    m = DenseModule(m)
    a, sp = m.algebra, m.space
    for dm in sp.degrees():
        for jm in range(sp.dim(dm)):
            e = m.basis_vec(dm, jm)
            v = m.act_vec(0, a.unit, dm, e)
            if v != e:
                return ("unit does not act as identity on %s" % sp.label(dm, jm),
                        ((dm, jm),), dm, sub_vec(v, e))
    degs_a = a.space.degrees()
    for da in degs_a:
        for db in degs_a:
            for dm in sp.degrees():
                if da + db + dm > sp.window.hi:
                    continue
                for ia in range(a.space.dim(da)):
                    x = a.basis_vec(da, ia)
                    for ib in range(a.space.dim(db)):
                        y = a.basis_vec(db, ib)
                        xy = a.mul_vec(da, x, db, y)
                        for jm in range(sp.dim(dm)):
                            e = m.basis_vec(dm, jm)
                            lhs = m.act_vec(da, x, db + dm, m.act_vec(db, y, dm, e))
                            rhs = m.act_vec(da + db, xy, dm, e)
                            if lhs != rhs:
                                return ("action not associative on (%s, %s, %s)"
                                        % (a.space.label(da, ia),
                                           a.space.label(db, ib), sp.label(dm, jm)),
                                        ((da, ia), (db, ib), (dm, jm)),
                                        da + db + dm, sub_vec(lhs, rhs))
    for da in degs_a:
        sgn = m.field.sign(da)
        for dm in sp.degrees():
            if da + dm + 1 > sp.window.hi:
                continue
            for ia in range(a.space.dim(da)):
                x = a.basis_vec(da, ia)
                for jm in range(sp.dim(dm)):
                    e = m.basis_vec(dm, jm)
                    lhs = m.d_vec(da + dm, m.act_vec(da, x, dm, e))
                    rhs = add_vec(m.act_vec(da + 1, a.d_vec(da, x), dm, e),
                                  scale_vec(sgn, m.act_vec(da, x, dm + 1,
                                                           m.d_vec(dm, e))))
                    if lhs != rhs:
                        return ("action Leibniz fails on (%s, %s)"
                                % (a.space.label(da, ia), sp.label(dm, jm)),
                                ((da, ia), (dm, jm)), da + dm + 1, sub_vec(lhs, rhs))
    return None


def dense_module_morphism(f):
    f = DenseMorphism(f, DenseModule)
    if f.map.shift != 0:
        return ("module morphisms must have degree 0",)
    if not is_chain_map(f.map, f.source.complex, f.target.complex):
        return ("module morphism is not a chain map",)
    a = f.source.algebra
    sp = f.source.space
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            x = a.basis_vec(da, ia)
            for dm in sp.degrees():
                for jm in range(sp.dim(dm)):
                    e = f.source.basis_vec(dm, jm)
                    lhs = f.apply(da + dm, f.source.act_vec(da, x, dm, e))
                    rhs = f.target.act_vec(da, x, dm, f.apply(dm, e))
                    if lhs != rhs:
                        return ("morphism not linear over (%s) at %s"
                                % (a.space.label(da, ia), sp.label(dm, jm)),
                                ((da, ia), (dm, jm)), da + dm, sub_vec(lhs, rhs))
    return None


def summary(witness, reference):
    """The witness in the reference's shape, with a sparse defect."""
    if witness is None:
        return None
    if reference is not None and len(reference) == 1:
        return (str(witness),)
    return (str(witness), witness.basis, witness.degree, witness.defect)


def sparse_defect(reference):
    """The reference with its defect sparse."""
    if reference is None or len(reference) == 1:
        return reference
    return reference[:3] + (sparse(reference[3]),)


# -- one broken table per axiom --------------------------------------------


def truncated_polynomial():
    """k[x]/(x^3), |x| = 2: basis 1, x, x^2."""
    return complex_projective(2, hi=4)


def acyclic_pair():
    """Free on x (degree 2) and y = dx (degree 3) up to degree 5."""
    return materialize_free_cdga(QQ, [("x", 2), ("y", 3)], {"x": {(1,): 1}}, [],
                                 DegreeWindow(0, 5))


def scaled_identity(space, factors):
    """Identity on `space`, times factors[d] in degree d."""
    return GradedLinearMap(space, space, 0,
                           {d: Matrix.identity(QQ, space.dim(d)).scale(factors.get(d, 1))
                            for d in space.degrees()})


def test_witness_unit_law_sides_in_loop_order():
    a = truncated_polynomial()
    product = dict(a.product)
    product[(2, 0, 0, 0)] = {0: QQ.of(2)}                         # x * 1 = 2x
    product[(0, 0, 4, 0)] = {0: QQ.of(3)}                         # 1 * x^2 = 3x^2
    w = check_cdga(Cdga(QQ, a.complex, product, a.unit))
    assert (w.axiom, w.labels, w.defect) == ("right unit", ("x",), {0: QQ.one})


def test_witness_cdga_associativity():
    a = materialize_free_cdga(QQ, [("a", 1), ("b", 1), ("c", 1)], {}, [],
                              DegreeWindow(0, 3))
    product = dict(a.product)
    product[(1, 0, 2, 2)] = product[(2, 2, 1, 0)] = {0: QQ.of(2)}  # a * bc = 2abc
    w = check_cdga(Cdga(QQ, a.complex, product, a.unit))
    assert w.axiom == "associativity"
    assert w.labels == ("a", "b", "c")
    assert (w.degree, w.defect) == (3, {0: QQ.of(-1)})
    with pytest.raises(AlgebraError, match=r"associativity fails on \(a, b, c\)"):
        Cdga(QQ, a.complex, product, a.unit).validate()


def test_witness_cdga_leibniz():
    a = acyclic_pair()
    product = dict(a.product)
    product[(2, 0, 2, 0)] = {0: QQ.of(3)}                         # x * x = 3x^2
    w = check_cdga(Cdga(QQ, a.complex, product, a.unit))
    assert w.axiom == "Leibniz"
    assert w.labels == ("x", "x")
    assert (w.degree, w.defect) == (5, {0: QQ.of(4)})


def test_witness_morphism_multiplicativity():
    a = truncated_polynomial()
    f = CdgaMorphism(a, a, scaled_identity(a.space, {4: 2}))
    w = check_cdga_morphism(f)
    assert w.axiom == "multiplicativity"
    assert w.labels == ("x", "x")
    assert (w.degree, w.defect) == (4, {0: QQ.one})
    with pytest.raises(AlgebraError, match=r"not multiplicative on \(x, x\)"):
        f.validate()


def test_morphism_into_a_wider_window():
    """Products above the source window are not compared, even where
    the target multiplies the images to something nonzero."""
    a, b = complex_projective(2, hi=3), truncated_polynomial()   # 1, x  and  1, x, x^2
    f = CdgaMorphism(a, b, GradedLinearMap(a.space, b.space, 0, {
        0: Matrix.identity(QQ, 1), 2: Matrix.identity(QQ, 1)}))
    assert check_cdga_morphism(f) is None


def test_witness_module_associativity():
    m = algebra_as_module(truncated_polynomial())
    action = dict(m.action)
    action[(2, 0, 2, 0)] = {0: QQ.of(2)}                          # x . x = 2x^2
    w = check_module(DgModule(m.algebra, m.complex, action))
    assert w.axiom == "module associativity"
    assert w.labels == ("x", "x", "1")
    assert (w.degree, w.defect) == (4, {0: QQ.one})
    with pytest.raises(ModuleError, match=r"not associative on \(x, x, 1\)"):
        DgModule(m.algebra, m.complex, action).validate()


def test_witness_module_leibniz():
    a = acyclic_pair()
    sp = a.space
    # d(x) = 2y on the module, d(x) = y on the algebra
    blocks = dict(a.complex.d.blocks)
    blocks[2] = blocks[2].scale(2)
    cx = CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))
    w = check_module(DgModule(a, cx, algebra_as_module(a).action))
    assert w.axiom == "module Leibniz"
    assert w.labels == ("x", "1")
    assert (w.degree, w.defect) == (3, {0: QQ.one})


def test_witness_module_morphism_linearity():
    m = algebra_as_module(truncated_polynomial())
    f = DgModuleMorphism(m, m, scaled_identity(m.space, {2: 2}))
    w = check_module_morphism(f)
    assert w.axiom == "linearity"
    assert w.labels == ("x", "1")
    assert (w.degree, w.defect) == (2, {0: QQ.one})
    with pytest.raises(ModuleError, match=r"not linear over \(x\) at 1"):
        f.validate()


# -- the generating set ------------------------------------------------------


def idempotent_pair():
    """A^0 spanned by 1 and an idempotent e, A^1 by y, with e y = y and
    d e = y: Leibniz fails on (e, e) alone, d(ee) = y against 2y."""
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 1), {0: 2, 1: 1},
                           {0: ["1", "e"], 1: ["y"]})
    cx = CochainComplex(sp, GradedLinearMap(sp, sp, 1, {0: Matrix(QQ, [[0, 1]])}))
    product = {(0, 0, 0, 0): {0: QQ.one}, (0, 0, 0, 1): {1: QQ.one},
               (0, 1, 0, 1): {1: QQ.one}, (0, 0, 1, 0): {0: QQ.one},
               (0, 1, 1, 0): {0: QQ.one}}
    return Cdga(QQ, cx, product, {0: QQ.one})


def broken_square():
    """acyclic_pair with x * x = 3x^2: Leibniz fails on (x, x) alone."""
    a = acyclic_pair()
    product = dict(a.product)
    product[(2, 0, 2, 0)] = {0: QQ.of(3)}
    return Cdga(QQ, a.complex, product, a.unit)


def broken_commutator():
    """The exterior algebra on a, b, c (degree 1) with c * ab negated, its
    reverse ab * c kept: commutativity fails on (c, a*b) alone, and
    associativity only on triples led by c, such as (c, a, b)."""
    a = materialize_free_cdga(QQ, [("a", 1), ("b", 1), ("c", 1)], {}, [],
                              DegreeWindow(0, 3))
    sp = a.space
    c, ab = sp.labels[1].index("c"), sp.labels[2].index("a*b")
    product = dict(a.product)
    product[(1, c, 2, ab)] = {i: -x for i, x in product[(1, c, 2, ab)].items()}
    return Cdga(QQ, a.complex, product, a.unit)


# the failing axiom and pair of each algebra below
LOST = {broken_square: ("Leibniz", ("x", "x")), idempotent_pair: ("Leibniz", ("e", "e")),
        broken_commutator: ("commutativity", ("c", "a*b"))}


@pytest.mark.parametrize("build, dropped", [(broken_square, (2, 0)),
                                            (idempotent_pair, (0, 1)),
                                            (broken_commutator, (1, 2))])
def test_generating_set_cannot_lose_an_element(monkeypatch, build, dropped):
    """An indecomposable, and a non-unit element of A^0, are each needed
    in S: without one, an algebra that fails Leibniz, or commutativity,
    passes."""
    a = build()
    witness = check_cdga(a)
    assert (witness.axiom, witness.labels) == LOST[build]
    assert witness.labels[0] == a.space.label(*dropped)
    assert dense_cdga(a)[0] == str(witness)
    full = checks.generating_set(a)
    assert dropped in full
    monkeypatch.setattr(checks, "generating_set",
                        lambda b: [s for s in full if s != dropped])
    assert check_cdga(a) is None


def partial_products(a, x, m=None):
    """The triples (y, k, n) of basis elements with e_k in x y and
    e_k.n nonzero, n in the module m or, without one, in a: the partial
    products (xy).n of a walk led by x."""
    act, sp = (partial(mul_basis, a), a.space) if m is None else (m.act_basis, m.space)
    return sum(1 for dy in a.space.degrees() for y in range(a.space.dim(dy))
               for k in mul_basis(a, *x, dy, y)
               for dn in sp.degrees() for n in range(sp.dim(dn))
               if act(x[0] + dy, k, dn, n))


def late_module_failure(a):
    """The free algebra `a` on a, b, c (degree 1) and x (degree 2) acting
    on itself, with c.(a x^2) negated: associativity fails only on
    triples led by c, the last element of degree 1, first on
    (c, a, x^2)."""
    m = algebra_as_module(a)
    sp = a.space
    key = (1, sp.labels[1].index("c"), 5, sp.labels[5].index("a*x^2"))
    action = dict(m.action)
    action[key] = {i: -v for i, v in action[key].items()}
    return DgModule(a, m.complex, action)


@pytest.mark.parametrize("budget", [0, 90, 200, checks._CHUNK])
def test_walk_on_s_shares_chunks_within_the_budget(monkeypatch, budget):
    """`holds_on` walks S in chunks of consecutive first factors: one
    alone, or several whose partial products total at most `_CHUNK`; the
    verdict does not depend on how S is cut.  A module is walked so on
    every basis element of its algebra, and `check_module` names the
    dense loop's witness under every budget."""
    monkeypatch.setattr(checks, "_CHUNK", budget)
    free = materialize_free_cdga(QQ, [("a", 1), ("b", 1), ("c", 1), ("x", 2)],
                                 {}, [], DegreeWindow(0, 6))
    every = [(d, i) for d in free.space.degrees() for i in range(free.space.dim(d))]
    rows = [(a, None, checks.generating_set(a), verdict)
            for a, verdict in ((free, True), (broken_commutator(), False),
                               (broken_square(), False))]
    rows += [(free, m, every, verdict)
             for m, verdict in ((algebra_as_module(free), True),
                                (late_module_failure(free), False))]
    walked = []
    for a, m, firsts, verdict in rows:
        walk = checks._Walk(a, m)
        chunks = []
        holds = walk._holds
        walk._holds = lambda c: chunks.append(list(c)) or holds(c)
        assert walk.holds_on(firsts) == verdict
        if verdict:
            assert [x for c in chunks for x in c] == firsts
        for c in chunks:
            assert len(c) == 1 or sum(partial_products(a, x, m) for x in c) <= budget
        if m is not None:
            reference = dense_module(m)
            assert (reference is None) == verdict
            assert summary(check_module(m), reference) == sparse_defect(reference)
            assert len(chunks) > 1
        walked.append((chunks, firsts))
    chunks, s = walked[2]                # broken_square's S fits one chunk
    if budget == checks._CHUNK:
        assert len(chunks) == 1 < len(s)
    if budget == 0:
        assert all(len(c) == 1 for chunks, _ in walked for c in chunks)


# -- differential test: sparse checks against the dense loops ---------------


def cdga_samples():
    f3 = PrimeField(3)
    return [sphere(2), sphere(3), sphere(6, field=PrimeField(5)),
            complex_projective(3), wedge_s2_s4(), product_s2_s4(),
            sullivan_cp2(), sullivan_cp2(field=f3), torus_s1_s7(hi=9),
            acyclic_pair(), truncated_polynomial(),
            materialize_free_cdga(QQ, [("a", 1), ("x", 2), ("y", 3)],
                                  {"y": {(1, 1): 1}}, [], DegreeWindow(0, 7)),
            materialize_free_cdga(f3, [("a", 1), ("b", 1), ("c", 2)], {}, [],
                                  DegreeWindow(0, 5))]


def perturbed(table, left, right, rng, field, symmetric=False):
    """Copy of a product (left = right) or action table with the entry of
    one random basis pair replaced by a random vector; with `symmetric`,
    the reversed product entry follows by graded commutativity.  Most
    draws spare the unit, so that later axioms are reached."""
    keys = [(d1, i1, d2, i2)
            for d1 in left.degrees() for i1 in range(left.dim(d1))
            for d2 in right.degrees() for i2 in range(right.dim(d2))
            if right.dim(d1 + d2)]
    if rng.random() < 0.8:
        keys = [k for k in keys if k[0] and k[2]] or keys
    d1, i1, d2, i2 = rng.choice(keys)
    v = tuple(field.of(rng.randint(-2, 2)) for _ in range(right.dim(d1 + d2)))
    out = dict(table)
    out[(d1, i1, d2, i2)] = sparse(v)
    if symmetric:
        out[(d2, i2, d1, i1)] = sparse(scale_vec(field.sign(d1 * d2), v))
    return out


def rescaled_differential(complex_, rng):
    """complex_ with one nonzero block of d doubled (still d^2 = 0), or
    None when d is zero."""
    blocks = dict(complex_.d.blocks)
    if not blocks:
        return None
    d = rng.choice(sorted(blocks))
    blocks[d] = blocks[d].scale(2)
    sp = complex_.space
    return CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))


def perturbed_map(glm, rng):
    """glm with one random entry of one block changed."""
    d = rng.choice([d for d, m in glm.blocks.items() if m.nrows and m.ncols])
    rows = [list(r) for r in glm.blocks[d].entries]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = rows[i][j] + glm.source.field.of(rng.choice([-1, 1, 2]))
    blocks = dict(glm.blocks)
    blocks[d] = Matrix(glm.source.field, rows)
    return GradedLinearMap(glm.source, glm.target, glm.shift, blocks)


WALKED = ("commutativity", "associativity", "Leibniz")


def reduced_verdict(a, witness):
    """Whether `check_cdga`'s walk with first factors in the generating
    set passes `a`, given its witness: the axioms before commutativity
    are checked in full either way."""
    if witness is not None and witness.axiom not in WALKED:
        return False
    return checks._Walk(a).holds_on(checks.generating_set(a))


def test_sparse_checks_match_dense_loops():
    """Same verdict and witness on valid objects with one table entry,
    map entry or differential block changed; and the same verdict from
    the walk with first factors in the generating set as from the walk
    over every first factor, on each algebra."""
    rng = random.Random(20261017)
    hit = {"cdga": set(), "morphism": set(), "module": set(), "module morphism": set()}

    def compare(kind, check, dense, obj):
        reference = dense(obj)
        witness = check(obj)
        assert summary(witness, reference) == sparse_defect(reference)
        hit[kind].add(witness.axiom if witness else None)
        if kind == "cdga":
            exhaustive = reference is None
            assert reduced_verdict(obj, witness) == exhaustive
            if witness is None or witness.axiom in WALKED:
                assert (checks._Walk(obj).first_failure() is None) == exhaustive

    for a in cdga_samples():
        compare("cdga", check_cdga, dense_cdga, a)
        field = a.field
        m = algebra_as_module(a)
        modules = [m]
        if field == QQ and a.is_connected() and a.space.window.hi <= 9:
            modules.append(random_semifree(a, rng, 2, 3))
        for _ in range(6 if a.complex.d.is_zero() else 12):
            product = perturbed(a.product, a.space, a.space, rng, field,
                                symmetric=rng.random() < 0.6)
            b = Cdga(field, a.complex, product, a.unit)
            compare("cdga", check_cdga, dense_cdga, b)
            ident = GradedLinearMap.identity(a.space)
            compare("morphism", check_cdga_morphism, dense_cdga_morphism,
                    CdgaMorphism(a, b, ident))
            compare("morphism", check_cdga_morphism, dense_cdga_morphism,
                    CdgaMorphism(a, a, perturbed_map(ident, rng)))
            cx = rescaled_differential(a.complex, rng)
            if cx is not None:
                compare("cdga", check_cdga, dense_cdga,
                        Cdga(field, cx, a.product, a.unit))
            for n in modules:
                action = perturbed(n.action, a.space, n.space, rng, field)
                p = DgModule(a, n.complex, action)
                compare("module", check_module, dense_module, p)
                cx = rescaled_differential(n.complex, rng)
                if cx is not None:
                    compare("module", check_module, dense_module,
                            DgModule(a, cx, n.action))
                ident = GradedLinearMap.identity(n.space)
                compare("module morphism", check_module_morphism,
                        dense_module_morphism,
                        DgModuleMorphism(n, p, ident))
                compare("module morphism", check_module_morphism,
                        dense_module_morphism,
                        DgModuleMorphism(n, n, perturbed_map(ident, rng)))
    # Every valid sample passes both ways, and the perturbations reach
    # each axiom past the unit law.
    assert {"commutativity", "associativity", "Leibniz"} <= hit["cdga"]
    assert {"chain map", "multiplicativity"} <= hit["morphism"]
    assert {"module associativity", "module Leibniz"} <= hit["module"]
    assert {"module chain map", "linearity"} <= hit["module morphism"]


def test_an_algebra_acting_on_itself_is_checked_as_a_module():
    """A module that shares its algebra's table and differential is
    checked for the module axioms, and named by them, also where the
    algebra fails the CDGA axioms: the walk decides which axioms it
    walks from whether it is given a module, not from the tables."""
    found = {}
    for build in (broken_square, broken_commutator, idempotent_pair):
        m = algebra_as_module(build())
        reference = dense_module(m)
        witness = check_module(m)
        assert summary(witness, reference) == sparse_defect(reference)
        found[build.__name__] = witness.axiom, witness.labels
    assert found == {"broken_square": ("module Leibniz", ("x", "x")),
                     "broken_commutator": ("module associativity", ("c", "a", "b")),
                     "idempotent_pair": ("module Leibniz", ("e", "e"))}


def test_valid_samples_pass():
    for a in cdga_samples():
        assert check_cdga(a) is None and dense_cdga(a) is None
        m = algebra_as_module(a)
        assert check_module(m) is None and dense_module(m) is None


# -- multiplicativity on the generating set ---------------------------------


def multiplicativity_verdicts(f):
    """Whether f(xy) = f(x)f(y) holds with x in the source's proof
    record S, and with x any basis element."""
    fcol = tables.columns(f.map)
    hi = min(f.source.space.window.hi, f.target.space.window.hi)
    firsts = set(f.source.proven_generators)
    return (checks._multiplicativity(f, fcol, hi, firsts) is None,
            checks._multiplicativity(f, fcol, hi) is None)


def test_multiplicativity_on_s_matches_every_pair():
    """On each proven sample, the identity and maps with one entry
    changed that still preserve d and the unit: the walk on S and the
    walk on every pair agree, and `check_cdga_morphism` names the
    witness of the exhaustive loop."""
    rng = random.Random(20261019)
    verdicts = []
    for a in cdga_samples():
        assert check_cdga(a) is None and a.proven_generators is not None
        ident = GradedLinearMap.identity(a.space)
        for glm in [ident] + [perturbed_map(ident, rng) for _ in range(16)]:
            f = CdgaMorphism(a, a, glm)
            reference = dense_cdga_morphism(f)
            assert summary(check_cdga_morphism(f), reference) == sparse_defect(reference)
            if reference is None or reference[0].startswith("morphism not multiplicative"):
                reduced, exhaustive = multiplicativity_verdicts(f)
                assert reduced == exhaustive == (reference is None)
                verdicts.append(reduced)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_an_unproven_target_is_walked_on_every_pair():
    """Lambda(a, b), |a| = |b| = 1, into a copy with a class w in degree
    4 and (ab)(ab) = w, which breaks associativity: (ab)(ab) != a(b(ab)).
    Every product with a first factor in S = {a, b} agrees, so only the
    walk on every pair names the failure, and it must run because the
    target carries no proof record."""
    a = materialize_free_cdga(QQ, [("a", 1), ("b", 1)], {}, [], DegreeWindow(0, 4))
    assert check_cdga(a) is None
    dims = {**a.space.dims, 4: 1}
    labels = {**a.space.labels, 4: ["w"]}
    space = GradedVectorSpace(QQ, a.space.window, dims, labels)
    b = Cdga(QQ, CochainComplex.zero_differential(space),
             {**a.product, (0, 0, 4, 0): {0: QQ.one}, (2, 0, 2, 0): {0: QQ.one}}, a.unit)
    assert check_cdga(b).axiom == "associativity" and b.proven_generators is None
    f = CdgaMorphism(a, b, GradedLinearMap(a.space, space, 0, {
        d: Matrix.identity(QQ, a.space.dim(d)) for d in a.space.degrees()}))
    assert multiplicativity_verdicts(f) == (True, False)
    w = check_cdga_morphism(f)
    assert (w.axiom, w.labels, w.degree, w.defect) == (
        "multiplicativity", ("a*b", "a*b"), 4, {0: QQ.minus_one})
    assert summary(w, dense_cdga_morphism(f)) == sparse_defect(dense_cdga_morphism(f))


def test_a_failure_on_s_is_named_by_the_walk_on_every_pair():
    """S^2 + S^2, with unit c0.1 + c1.1 and S^0 = {c1.1}, under the map
    that swaps c0.1 and c1.1 and fixes the rest.  The walk on S fails
    first on (c1.1, c0.e2); the witness is the exhaustive loop's, the
    earlier (c0.1, c0.e2)."""
    a = direct_sum_cdga([sphere(2), sphere(2)])
    assert check_cdga(a) is None and (0, 0) not in a.proven_generators
    blocks = {d: Matrix.identity(QQ, a.space.dim(d)) for d in a.space.degrees()}
    blocks[0] = Matrix.sparse(QQ, [{1: QQ.one}, {0: QQ.one}], 2)
    f = CdgaMorphism(a, a, GradedLinearMap(a.space, a.space, 0, blocks))
    on_s = checks._multiplicativity(f, tables.columns(f.map), 3, set(a.proven_generators))
    assert on_s.labels == ("c1.1", "c0.e2")
    reference = dense_cdga_morphism(f)
    assert reference[0] == "morphism not multiplicative on (c0.1, c0.e2)"
    assert summary(check_cdga_morphism(f), reference) == sparse_defect(reference)
