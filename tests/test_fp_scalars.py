"""F_p scalars as plain ints against the boxed `FpElement` reference.

`PrimeField` holds a scalar as an int in [0, p) and leaves reduction to
the kernels of `linalg`.  `dense.BoxedPrimeField` runs the same library
code on `FpElement`s, which reduce on every operation, as the library's
scalars once did.  Over F_2 (where -1 = 1), F_5 and F_10007 both must
give equal results, and every scalar the int field stores must be a
nonzero residue.
"""

import random

import pytest

from builders import (complex_projective, free_module, product_s2_s4, random_semifree,
                      sphere, sullivan_cp2, torus_s1_s7, wedge_s2_s4)
from dense import BoxedPrimeField
from pemb.fields import PrimeField
from pemb.graded import DegreeWindow, cohomology
from pemb.linalg import Matrix
from pemb.modules import (FreeGenerator, algebra_as_module, semifree_resolution,
                          shifted_dual)
from pemb.parser import parse
from test_linalg import in_scalar_form

PRIMES = [2, 5, 10007]


def assert_residues(field, v):
    """Every scalar of a vector, table or list of them is a nonzero
    residue of `field`."""
    if isinstance(v, dict) and not any(isinstance(x, (dict, list)) for x in v.values()):
        assert all(in_scalar_form(field, x) for x in v.values()), v
    elif isinstance(v, dict):
        for w in v.values():
            assert_residues(field, w)
    else:
        for w in v:
            assert_residues(field, w)


def random_cells(p, rng, nrows, ncols):
    """Dense int cells, mostly zero, some negative or past p."""
    pool = [0] * 6 + [1, -1, 2, p - 1, p + 3, -2 * p - 1, rng.randrange(p)]
    return [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_matches_boxed_scalars(p):
    field, boxed = PrimeField(p), BoxedPrimeField(p)
    rng = random.Random("elimination:%d" % p)
    consistent = 0
    for _ in range(80):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        cells = random_cells(p, rng, nrows, ncols)
        m, ref = Matrix(field, cells), Matrix(boxed, cells)
        assert m.rows == ref.rows
        assert_residues(field, m.rows)
        red, pivots = m.rref()
        assert (red, pivots) == ref.rref()
        assert_residues(field, red.rows)
        kern = m.kernel_basis()
        assert kern == ref.kernel_basis()
        assert_residues(field, kern)
        assert all(m.apply(v) == {} for v in kern)
        x = {j: field.of(rng.randint(-3, 3)) for j in range(ncols)}
        x = {j: c for j, c in x.items() if c}
        for b in (m.apply(x), {i: rng.randrange(1, p) for i in range(nrows)
                               if rng.random() < 0.5}):
            sol = m.solve(b)
            assert sol == ref.solve({i: boxed.of(c) for i, c in b.items()})
            if sol is not None:
                assert_residues(field, sol)
                assert m.apply(sol) == b
                consistent += 1
    assert consistent >= 80


def builder_algebras(field):
    return [sphere(2, field=field), sphere(3, field=field), sphere(6, hi=9, field=field),
            complex_projective(3, field=field), wedge_s2_s4(field=field),
            product_s2_s4(field=field), sullivan_cp2(field=field),
            torus_s1_s7(hi=9, field=field)]


@pytest.mark.parametrize("p", PRIMES)
def test_builder_algebras_match_boxed_scalars(p):
    field, boxed = PrimeField(p), BoxedPrimeField(p)
    rng = random.Random("algebras:%d" % p)
    for a, ref in zip(builder_algebras(field), builder_algebras(boxed)):
        assert a.both_orders == ref.both_orders and a.unit == ref.unit
        assert a.complex.d.blocks == ref.complex.d.blocks
        assert_residues(field, a.both_orders)
        degs = a.space.degrees()
        vecs = {d: {i: x for i in range(a.space.dim(d))
                    if (x := rng.choice([0, 1, p - 1, rng.randrange(p)]))}
                for d in degs}
        for d1 in degs:
            for d2 in degs:
                if d1 + d2 <= a.space.window.hi:
                    w = a.mul_vec(d1, vecs[d1], d2, vecs[d2])
                    assert w == ref.mul_vec(d1, {i: boxed.of(c) for i, c in vecs[d1].items()},
                                            d2, {i: boxed.of(c) for i, c in vecs[d2].items()})
                    assert_residues(field, w)
        coh, rcoh = cohomology(a.complex), cohomology(ref.complex)
        assert coh.dims == rcoh.dims and coh.reps == rcoh.reps
        assert_residues(field, coh.reps)
        for d, reps in coh.reps.items():
            for k, z in enumerate(reps):
                assert coh.reduce(d, z) == rcoh.reduce(d, rcoh.reps[d][k]) == {k: 1}


EXTERIOR = """
field rational
window 0 2
cdga E explicit {
  basis one deg 0
  basis a deg 1
  basis b deg 1
  basis ab deg 2
  product one one = one
  product one a = a
  product one b = b
  product one ab = ab
  product a b = ab
}
"""


@pytest.mark.parametrize("p", PRIMES)
def test_products_filled_in_by_commutativity_are_residues(p):
    # b a = -ab is not listed: the algebra fills it in as -1 = p - 1
    field, boxed = PrimeField(p), BoxedPrimeField(p)
    e = parse(EXTERIOR, field_override=field).algebras["E"].cdga
    ref = parse(EXTERIOR, field_override=boxed).algebras["E"].cdga
    assert e.both_orders[(1, 1, 1, 0)] == {0: p - 1}
    assert e.both_orders == ref.both_orders
    assert_residues(field, e.both_orders)


def modules_to_resolve(field):
    """(module, window): a free module, shifted duals, a module needing
    kernel generators, and a random semifree module."""
    s2 = sphere(2, hi=5, field=field)
    unit_mod, _ = free_module(s2, [FreeGenerator("g", 0)], {}, DegreeWindow(0, 0))
    return [(algebra_as_module(sullivan_cp2(field=field)), None),
            (shifted_dual(algebra_as_module(sphere(2, hi=10, field=field)), 9), None),
            (shifted_dual(algebra_as_module(product_s2_s4(field=field)), 7), None),
            (shifted_dual(algebra_as_module(torus_s1_s7(hi=9, field=field)), 8), None),
            (unit_mod, DegreeWindow(0, 5)),
            (random_semifree(s2, random.Random(field.p), 3, 3, DegreeWindow(0, 5)), None)]


@pytest.mark.parametrize("p", PRIMES)
def test_semifree_resolution_matches_boxed_scalars(p):
    field, boxed = PrimeField(p), BoxedPrimeField(p)
    for (m, window), (ref, _) in zip(modules_to_resolve(field), modules_to_resolve(boxed)):
        assert m.action == ref.action
        res = semifree_resolution(m, window=window)
        rres = semifree_resolution(ref, window=window)
        assert ([(g.label, g.degree) for g in res.generators]
                == [(g.label, g.degree) for g in rres.generators])
        assert res.module.action == rres.module.action
        assert res.module.complex.d.blocks == rres.module.complex.d.blocks
        assert res.rho.map.blocks == rres.rho.map.blocks
        assert_residues(field, res.module.action)
        assert_residues(field, [r for b in res.module.complex.d.blocks.values()
                                for r in b.rows])
        assert_residues(field, [r for b in res.rho.map.blocks.values() for r in b.rows])
