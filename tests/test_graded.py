import random
from fractions import Fraction

import pytest

from builders import euler_characteristic
from dense import is_chain_map
from pemb.fields import QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedError,
                         GradedLinearMap, GradedVectorSpace, cohomology,
                         dualize, mapping_cone, suspend)
from pemb.linalg import Matrix


def simple_complex(dims, dmaps, lo=0, hi=None):
    """dims: {deg: n}; dmaps: {deg: rows} giving d in degree deg."""
    if hi is None:
        hi = max(dims) + 1
    sp = GradedVectorSpace(QQ, DegreeWindow(lo, hi), dims)
    blocks = {d: Matrix(QQ, rows) for d, rows in dmaps.items()}
    return CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))


def test_d_squared_rejected():
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 2), {0: 1, 1: 1, 2: 1})
    blocks = {0: Matrix(QQ, [[1]]), 1: Matrix(QQ, [[1]])}
    with pytest.raises(GradedError, match=r"d\*d != 0 at degree 0"):
        CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))
    # no block stored in degree 1: d*d vanishes around it
    sp = GradedVectorSpace(QQ, DegreeWindow(0, 4), {0: 1, 1: 1, 2: 1, 3: 1})
    blocks = {0: Matrix(QQ, [[1]]), 2: Matrix(QQ, [[1]])}
    assert CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks)).d.blocks.keys() == {0, 2}


def test_cohomology_zero_differential():
    c = simple_complex({0: 1, 3: 1}, {})
    h = cohomology(c)
    assert h.dims == {0: 1, 3: 1}


def test_cohomology_acyclic_pair():
    c = simple_complex({0: 1, 1: 1}, {0: [[1]]})
    h = cohomology(c)
    assert h.dims == {}


def test_cohomology_middle_cancel():
    c = simple_complex({4: 1, 5: 1, 6: 1}, {5: [[1]]})
    h = cohomology(c)
    assert h.dims == {4: 1}


def test_cohomology_reduce():
    c = simple_complex({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]})
    h = cohomology(c)
    # degree 1: cocycles span (1,0); coboundaries span (1,0) as well
    assert h.dims == {}
    assert h.reduce(1, {0: QQ.of(3)}) == {}


def test_suspend_signs():
    c = simple_complex({0: 1, 1: 1}, {0: [[1]]})
    s1 = suspend(c, 1)
    assert s1.space.dims == {-1: 1, 0: 1}
    assert s1.d.block(-1) == Matrix(QQ, [[-1]])
    back = suspend(s1, -1)
    assert back.space.dims == c.space.dims
    assert back.d.block(0) == c.d.block(0)


def test_suspend_zero_is_identity():
    c = simple_complex({0: 2}, {})
    assert suspend(c, 0) is c


def test_dualize_sign_rule():
    # d: c^2 -> c^3 is [1]; delta on the dual must be -(-1)^2 = -1
    c = simple_complex({2: 1, 3: 1}, {2: [[1]]}, lo=0, hi=4)
    dc = dualize(c)
    assert dc.space.dims == {-3: 1, -2: 1}
    assert dc.d.block(-3) == Matrix(QQ, [[-1]])


def test_dualize_pairing_identity():
    # <d x, f> = -(-1)^|x| <x, delta f> on random complexes
    rng = random.Random(7)
    for _ in range(20):
        dims = {0: rng.randint(1, 2), 1: rng.randint(1, 2), 2: rng.randint(1, 2)}
        # build d with d^2 = 0: only one nonzero block
        d1 = Matrix(QQ, [[QQ.of(rng.randint(-2, 2)) for _ in range(dims[1])]
                         for _ in range(dims[2])])
        c = simple_complex(dims, {1: d1.entries}, hi=3)
        dc = dualize(c)
        for a in range(dims[1]):
            for b in range(dims[2]):
                lhs = c.d.apply(1, {a: QQ.one}).get(b, QQ.zero)
                delta_f = dc.d.apply(-2, {b: QQ.one})
                rhs = -QQ.sign(1) * delta_f.get(a, QQ.zero)
                assert lhs == rhs


def test_double_dual():
    c = simple_complex({1: 2, 2: 1}, {1: [[1, 2]]}, hi=3)
    dd = dualize(dualize(c))
    assert dd.space.dims == c.space.dims
    # canonical identification x -> (-1)^|x| ev_x conjugates d'' into d
    for deg in c.space.degrees():
        assert dd.d.block(deg) == c.d.block(deg).scale(QQ.of(-1))


def cone_of(fblocks, cx, cy):
    f = GradedLinearMap(cx.space, cy.space, 0,
                        {d: Matrix(QQ, rows) for d, rows in fblocks.items()})
    return mapping_cone(f, cx, cy)


def test_cone_of_zero_map():
    cx = simple_complex({1: 1}, {}, hi=2)
    cy = simple_complex({0: 1}, {}, hi=2)
    cone = cone_of({}, cx, cy)
    assert cone.complex.space.dims == {0: 2}
    assert cohomology(cone.complex).dims == {0: 2}


def test_cone_of_identity_acyclic():
    cy = simple_complex({0: 1, 2: 2}, {}, hi=3)
    cone = cone_of({0: [[1]], 2: [[1, 0], [0, 1]]}, cy, cy)
    assert cohomology(cone.complex).dims == {}


def test_cone_rejects_non_chain_map():
    cx = simple_complex({0: 1, 1: 1}, {}, hi=2)
    cy = simple_complex({0: 1, 1: 1}, {0: [[1]]}, hi=2)
    f = GradedLinearMap(cx.space, cy.space, 0, {0: Matrix(QQ, [[1]])})
    assert not is_chain_map(f, cx, cy)
    with pytest.raises(GradedError):
        mapping_cone(f, cx, cy)


def test_cone_euler_characteristic():
    rng = random.Random(3)
    for _ in range(20):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        cx = simple_complex({1: n0}, {}, hi=2)
        cy = simple_complex({0: n1, 1: n1},
                            {0: [[QQ.of(rng.randint(-1, 1)) for _ in range(n1)]
                                 for _ in range(n1)]}, hi=2)
        f = GradedLinearMap(cx.space, cy.space, 0,
                            {1: Matrix(QQ, [[QQ.of(rng.randint(-2, 2))
                                             for _ in range(n0)]
                                            for _ in range(n1)])})
        if not is_chain_map(f, cx, cy):
            continue
        cone = mapping_cone(f, cx, cy)
        chi = euler_characteristic
        assert chi(cone.complex.space) == chi(cy.space) + chi(suspend(cx, 1).space)
        hc = cohomology(cone.complex)
        assert chi(cone.complex.space) == sum((-1) ** d * n for d, n in hc.dims.items())


def test_cone_inclusion_projection_chain_maps():
    cx = simple_complex({1: 1, 2: 1}, {1: [[1]]}, hi=3)
    cy = simple_complex({0: 1, 1: 1}, {}, hi=3)
    f = GradedLinearMap(cx.space, cy.space, 0, {1: Matrix(QQ, [[2]])})
    assert is_chain_map(f, cx, cy)
    cone = cone_of({1: [[2]]}, cx, cy)
    assert is_chain_map(cone.inclusion, cy, cone.complex)
    assert is_chain_map(cone.projection, cone.complex, cone.sx_complex)
