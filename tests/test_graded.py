import random
from fractions import Fraction

import pytest

from builders import euler_characteristic, sphere, sullivan_cp2
from dense import ReferenceCohomology, is_chain_map
from pemb.algebra import direct_sum_cdga, materialize_free_cdga
from pemb.fields import PrimeField, QQ
from pemb.graded import (CochainComplex, DegreeWindow, GradedError,
                         GradedLinearMap, GradedVectorSpace, cohomology,
                         direct_sum, dualize, mapping_cone, suspend)
from pemb.linalg import Matrix, axpy, dense
from pemb.modules import (algebra_as_module, direct_sum_modules, shifted_dual,
                          suspend_module)


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


def test_cone_inclusion_is_a_chain_map():
    cx = simple_complex({1: 1, 2: 1}, {1: [[1]]}, hi=3)
    cy = simple_complex({0: 1, 1: 1}, {}, hi=3)
    f = GradedLinearMap(cx.space, cy.space, 0, {1: Matrix(QQ, [[2]])})
    assert is_chain_map(f, cx, cy)
    cone = cone_of({1: [[2]]}, cx, cy)
    assert is_chain_map(cone.inclusion, cy, cone.complex)


def random_combination(field, rng, vectors):
    out = {}
    for v in vectors:
        c = field.of(rng.randint(-2, 2))
        if c:
            axpy(field, out, c, v)
    return out


def random_complex(field, rng, hi=5):
    """A complex on the window 0..hi with dimensions 0..3, where about
    half of the blocks that could be nonzero are absent; each stored
    block's rows are combinations of the vectors that kill the image of
    the block before it, so d*d = 0."""
    sp = GradedVectorSpace(field, DegreeWindow(0, hi),
                           {d: rng.randint(0, 3) for d in range(hi + 1)})
    blocks = {}
    for d in range(hi):
        n, m = sp.dim(d), sp.dim(d + 1)
        if not n or not m or rng.random() < 0.5:
            continue
        prev = blocks.get(d - 1)
        allowed = (prev.transpose().kernel_basis() if prev is not None
                   else [{i: field.one} for i in range(n)])
        rows = [random_combination(field, rng, allowed) for _ in range(m)]
        blocks[d] = Matrix.sparse(field, rows, n)
    return CochainComplex(sp, GradedLinearMap(sp, sp, 1, blocks))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(10007)],
                         ids=["Q", "F2", "F10007"])
def test_cohomology_skips_absent_blocks_as_the_full_elimination_would(field):
    rng = random.Random(1212)
    bare = stored = 0
    for _ in range(60):
        c = random_complex(field, rng)
        coh, ref = cohomology(c), ReferenceCohomology(c)
        assert (coh.dims, coh.reps) == (ref.dims, ref.reps)
        for deg in c.space.degrees():
            if deg in c.d.blocks or deg - 1 in c.d.blocks:
                stored += 1
            else:
                bare += 1
            for _ in range(3):
                z = random_combination(field, rng, ref.cocycles[deg])
                assert coh.reduce(deg, z) == ref.reduce(deg, z)
                w = {i: field.of(rng.randint(-2, 2)) for i in range(c.space.dim(deg - 1))}
                b = c.d.apply(deg - 1, {i: x for i, x in w.items() if x})
                for v in (b, z):
                    assert coh.write_coboundary(deg, v) == ref.write_coboundary(deg, v)
    assert bare > 50 and stored > 50


def test_zero_differentials_cost_no_elimination_and_no_zero_block(monkeypatch):
    """Cohomology, suspension, dual, cone and sum of complexes with d = 0
    neither row-reduce nor build a zero matrix."""
    x = simple_complex({0: 1, 2: 2, 3: 1}, {}, hi=4)
    y = simple_complex({1: 2, 2: 1}, {}, hi=4)
    f = GradedLinearMap(x.space, y.space, 0, {})

    def forbidden(*args):
        raise AssertionError("eliminated or built a zero block")
    monkeypatch.setattr(Matrix, "rref", forbidden)
    monkeypatch.setattr(Matrix, "zero", staticmethod(forbidden))
    for c in (x, suspend(x, 3), dualize(x), mapping_cone(f, x, y).complex,
              direct_sum([x, y])[0]):
        assert not c.d.blocks
        coh = cohomology(c)
        assert coh.dims == c.space.dims
        for deg in c.space.degrees():
            v = {i: QQ.of(i + 1) for i in range(c.space.dim(deg))}
            assert coh.reps[deg] == [{i: QQ.one} for i in range(c.space.dim(deg))]
            assert coh.reduce(deg, v) == v


def block_diagonal(blocks, shapes):
    """The dense matrix with the given blocks, each (rows, cols) in
    `shapes` and stored sparse or None for zero, down its diagonal."""
    out = []
    col = 0
    ncols = sum(c for _, c in shapes)
    for m, (nr, nc) in zip(blocks, shapes):
        for r in range(nr):
            row = [QQ.zero] * ncols
            if m is not None:
                for j, x in m.rows[r].items():
                    row[col + j] = x
            out.append(tuple(row))
        col += nc
    return out


def test_direct_sum_stacks_nonzero_differentials():
    """`direct_sum` puts d of each summand on the diagonal, through
    `direct_sum_cdga` and `direct_sum_modules` of Sullivan-type summands
    (d != 0; among the algebras also one with d = 0); the sums pass
    their checks and their cohomology dimensions add."""
    s2 = materialize_free_cdga(QQ, [("x", 2), ("y", 3)], {"y": {(0, 0): 1}}, [],
                               DegreeWindow(0, 8))
    cp2 = sullivan_cp2(hi=8)
    algebras = [cp2, sphere(4, hi=8), s2]
    m = algebra_as_module(cp2)
    modules = [m, suspend_module(m, -3), shifted_dual(m, 8)]
    for total, parts in ((direct_sum_cdga(algebras), algebras),
                         (direct_sum_modules(modules)[0], modules)):
        total.validate()
        cxs = [p.complex for p in parts]
        assert sum(1 for c in cxs if c.d.blocks) >= 2
        for d in total.space.degrees():
            shapes = [(c.space.dim(d + 1), c.space.dim(d)) for c in cxs]
            expected = block_diagonal([c.d.blocks.get(d) for c in cxs], shapes)
            got = total.complex.d.block(d)
            assert [dense(QQ, r, got.ncols) for r in got.rows] == expected
        coh = cohomology(total.complex).dims
        assert coh == {d: n for d in total.space.degrees()
                       if (n := sum(cohomology(c).dims.get(d, 0) for c in cxs))}
