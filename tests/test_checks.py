"""pemb.checks against the exhaustive loops it replaced.

The dense_* functions are those loops, kept as the reference: they
visit every basis tuple in order and return the first failure as
(message, basis, degree, defect), or (message,) for a failure that
names no basis tuple.
"""

import random

import pytest

from builders import (complex_projective, product_s2_s4, sphere, sullivan_cp2,
                      torus_s1_s7, wedge_s2_s4)
from pemb.algebra import (AlgebraError, Cdga, CdgaMorphism,
                          materialize_free_cdga)
from pemb.checks import (check_cdga, check_cdga_morphism, check_module,
                         check_module_morphism)
from pemb.fields import PrimeField, QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                         is_chain_map)
from pemb.linalg import Matrix, add_vec, is_zero_vec, scale_vec, sub_vec
from pemb.modules import (DgModule, DgModuleMorphism, ModuleError,
                          algebra_as_module, random_semifree)


# -- reference: the exhaustive loops ---------------------------------------


def dense_cdga(a):
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
    """The witness in the reference's shape."""
    if witness is None:
        return None
    if reference is not None and len(reference) == 1:
        return (str(witness),)
    return (str(witness), witness.basis, witness.degree, witness.defect)


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
    product[(2, 0, 0, 0)] = (QQ.of(2),)                           # x * 1 = 2x
    product[(0, 0, 4, 0)] = (QQ.of(3),)                           # 1 * x^2 = 3x^2
    w = check_cdga(Cdga(QQ, a.complex, product, a.unit, validate=False))
    assert (w.axiom, w.labels, w.defect) == ("right unit", ("x",), (QQ.one,))


def test_witness_cdga_associativity():
    a = materialize_free_cdga(QQ, [("a", 1), ("b", 1), ("c", 1)], {}, [],
                              DegreeWindow(0, 3))
    product = dict(a.product)
    product[(1, 0, 2, 2)] = product[(2, 2, 1, 0)] = (QQ.of(2),)   # a * bc = 2abc
    w = check_cdga(Cdga(QQ, a.complex, product, a.unit, validate=False))
    assert w.axiom == "associativity"
    assert w.labels == ("a", "b", "c")
    assert (w.degree, w.defect) == (3, (QQ.of(-1),))
    with pytest.raises(AlgebraError, match=r"associativity fails on \(a, b, c\)"):
        Cdga(QQ, a.complex, product, a.unit)


def test_witness_cdga_leibniz():
    a = acyclic_pair()
    product = dict(a.product)
    product[(2, 0, 2, 0)] = (QQ.of(3),)                           # x * x = 3x^2
    w = check_cdga(Cdga(QQ, a.complex, product, a.unit, validate=False))
    assert w.axiom == "Leibniz"
    assert w.labels == ("x", "x")
    assert (w.degree, w.defect) == (5, (QQ.of(4),))


def test_witness_morphism_multiplicativity():
    a = truncated_polynomial()
    f = CdgaMorphism(a, a, scaled_identity(a.space, {4: 2}), validate=False)
    w = check_cdga_morphism(f)
    assert w.axiom == "multiplicativity"
    assert w.labels == ("x", "x")
    assert (w.degree, w.defect) == (4, (QQ.one,))
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
    action[(2, 0, 2, 0)] = (QQ.of(2),)                            # x . x = 2x^2
    w = check_module(DgModule(m.algebra, m.complex, action, validate=False))
    assert w.axiom == "module associativity"
    assert w.labels == ("x", "x", "1")
    assert (w.degree, w.defect) == (4, (QQ.one,))
    with pytest.raises(ModuleError, match=r"not associative on \(x, x, 1\)"):
        DgModule(m.algebra, m.complex, action)


def test_witness_module_leibniz():
    a = acyclic_pair()
    sp = a.space
    # d(x) = 2y on the module, d(x) = y on the algebra
    blocks = dict(a.complex.d.blocks)
    blocks[2] = blocks[2].scale(2)
    cx = CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))
    w = check_module(DgModule(a, cx, algebra_as_module(a).action, validate=False))
    assert w.axiom == "module Leibniz"
    assert w.labels == ("x", "1")
    assert (w.degree, w.defect) == (3, (QQ.one,))


def test_witness_module_morphism_linearity():
    m = algebra_as_module(truncated_polynomial())
    f = DgModuleMorphism(m, m, scaled_identity(m.space, {2: 2}), validate=False)
    w = check_module_morphism(f)
    assert w.axiom == "linearity"
    assert w.labels == ("x", "1")
    assert (w.degree, w.defect) == (2, (QQ.one,))
    with pytest.raises(ModuleError, match=r"not linear over \(x\) at 1"):
        f.validate()


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
    out[(d1, i1, d2, i2)] = v
    if symmetric:
        out[(d2, i2, d1, i1)] = scale_vec(field.sign(d1 * d2), v)
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


def test_sparse_checks_match_dense_loops():
    """Same verdict and witness on valid objects with one table entry,
    map entry or differential block changed."""
    rng = random.Random(20261017)
    hit = {"cdga": set(), "morphism": set(), "module": set(), "module morphism": set()}

    def compare(kind, check, dense, obj):
        reference = dense(obj)
        witness = check(obj)
        assert summary(witness, reference) == reference
        hit[kind].add(witness.axiom if witness else None)

    for a in cdga_samples():
        field = a.field
        m = algebra_as_module(a)
        modules = [m]
        if field == QQ and a.is_connected() and a.space.window.hi <= 9:
            modules.append(random_semifree(a, rng, 2, 3))
        for _ in range(6 if a.complex.d.is_zero() else 12):
            product = perturbed(a.product, a.space, a.space, rng, field,
                                symmetric=rng.random() < 0.6)
            b = Cdga(field, a.complex, product, a.unit, validate=False)
            compare("cdga", check_cdga, dense_cdga, b)
            ident = GradedLinearMap.identity(a.space)
            compare("morphism", check_cdga_morphism, dense_cdga_morphism,
                    CdgaMorphism(a, b, ident, validate=False))
            compare("morphism", check_cdga_morphism, dense_cdga_morphism,
                    CdgaMorphism(a, a, perturbed_map(ident, rng), validate=False))
            cx = rescaled_differential(a.complex, rng)
            if cx is not None:
                compare("cdga", check_cdga, dense_cdga,
                        Cdga(field, cx, a.product, a.unit, validate=False))
            for n in modules:
                action = perturbed(n.action, a.space, n.space, rng, field)
                p = DgModule(a, n.complex, action, validate=False)
                compare("module", check_module, dense_module, p)
                cx = rescaled_differential(n.complex, rng)
                if cx is not None:
                    compare("module", check_module, dense_module,
                            DgModule(a, cx, n.action, validate=False))
                ident = GradedLinearMap.identity(n.space)
                compare("module morphism", check_module_morphism,
                        dense_module_morphism,
                        DgModuleMorphism(n, p, ident, validate=False))
                compare("module morphism", check_module_morphism,
                        dense_module_morphism,
                        DgModuleMorphism(n, n, perturbed_map(ident, rng),
                                         validate=False))
    # Every valid sample passes both ways, and the perturbations reach
    # each axiom past the unit law.
    assert {"commutativity", "associativity", "Leibniz"} <= hit["cdga"]
    assert {"chain map", "multiplicativity"} <= hit["morphism"]
    assert {"module associativity", "module Leibniz"} <= hit["module"]
    assert {"module chain map", "linearity"} <= hit["module morphism"]


def test_valid_samples_pass():
    for a in cdga_samples():
        assert check_cdga(a) is None and dense_cdga(a) is None
        m = algebra_as_module(a)
        assert check_module(m) is None and dense_module(m) is None
