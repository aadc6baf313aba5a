"""The vocabulary of `pemb.tables` against the sums it names.

Each contraction is written out here over every basis tuple and every
coordinate, zeros included, with the dense vectors of `dense`, and
compared with the sparse result, on small random tables over Q and
F_10007 drawn from one fixed seed in a random insertion order.  The
index, restriction and grouping keep table order, swapping twice gives
the table back, and the table-major and index-major walks of one sum
give equal dicts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dense import add_vec, col, lift, lower, reference, row, scale_vec, sparse, zero_vec
from pemb import tables
from pemb.fields import QQ, PrimeField
from pemb.graded import DegreeWindow, GradedLinearMap, GradedVectorSpace
from pemb.linalg import Matrix, dense

DIMS = {0: 1, 1: 2, 2: 3, 3: 2, 4: 2}
ELEMENTS = [(d, i) for d, n in DIMS.items() for i in range(n)]
FIELDS = [QQ, PrimeField(10007)]


def scalar(field, rng):
    if field.characteristic:
        return rng.randrange(1, field.characteristic)
    return rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def random_table(field, rng, slots, raise_by=0):
    """Keys of `slots` basis elements, in a random order, each with a
    random nonzero vector of the key's degree plus raise_by, or none."""
    out = []
    for key in itertools.product(ELEMENTS, repeat=slots):
        flat = sum(key, ())
        n = DIMS.get(sum(flat[0::2]) + raise_by, 0)
        v = {i: scalar(field, rng) for i in range(n) if rng.random() < 0.6}
        if v and rng.random() < 0.7:
            out.append((flat, v))
    rng.shuffle(out)
    return dict(out)


def random_map(field, rng):
    """A random map of degree 0 from the graded space of DIMS to itself."""
    space = GradedVectorSpace(field, DegreeWindow(0, max(DIMS)), DIMS)
    blocks = {d: Matrix.sparse(field, [{j: scalar(field, rng) for j in range(n)
                                        if rng.random() < 0.5} for _ in range(n)], n)
              for d, n in DIMS.items()}
    return GradedLinearMap(space, space, 0, blocks)


def degree(key):
    return sum(key[0::2])


def tuples(slots):
    return [sum(key, ()) for key in itertools.product(ELEMENTS, repeat=slots)]


def coordinate(field, v, k):
    return reference(field).of(v.get(k, field.zero))


def dense_sum(field, terms, deg):
    """sum of c * w over the (scalar c, sparse vector w) of `terms`, with
    w of degree deg, added densely in the reference field."""
    n = DIMS.get(deg, 0)
    out = zero_vec(field, n)
    for c, w in terms:
        out = add_vec(out, scale_vec(c, lift(field, dense(field, w, n))))
    return sparse(lower(field, out))


def nonzero(table):
    return {k: v for k, v in table.items() if v}


def contraction(field, t, x, side, raise_by=0):
    """The nonzero sums sum_k T[key]_k X[... (|key| + raise_by, k) ...]
    under the key of X with T's key in the place of slot `side`, written
    out densely over every key of T and every element of X's other
    slot."""
    want = {}
    for key, other in itertools.product(tuples(len(next(iter(t))) // 2), tuples(1)):
        deg = degree(key) + raise_by
        terms = [(coordinate(field, t.get(key, {}), k),
                  x.get((deg, k) + other if side == 0 else other + (deg, k), {}))
                 for k in range(DIMS.get(deg, 0))]
        want[key + other if side == 0 else other + key] = dense_sum(
            field, terms, deg + degree(other))
    return nonzero(want)


@pytest.fixture(params=FIELDS, ids=["Q", "F10007"])
def field(request):
    return request.param


@pytest.fixture
def rng():
    return random.Random(29)


def test_columns_are_the_nonzero_columns_of_each_block(field, rng):
    f = random_map(field, rng)
    want = {(d, j): sparse(lower(field, lift(field, col(m, j))))
            for d, m in f.blocks.items() for j in range(m.ncols)}
    assert tables.columns(f) == nonzero(want)


def test_by_lists_each_entry_under_its_element_in_table_order(field, rng):
    t = random_table(field, rng, 2)
    for side in (0, 1):
        at = 2 * side
        index = tables.by(t, side)
        for b in ELEMENTS:
            assert index.get(b, []) == [(k[:at], k[at + 2:], v) for k, v in t.items()
                                        if k[at:at + 2] == b]


def test_on_firsts_and_by_degree_keep_table_order(field, rng):
    t = random_table(field, rng, 2)
    firsts = set(rng.sample(ELEMENTS, 4))
    assert list(tables.on_firsts(t, firsts).items()) == [
        (k, v) for k, v in t.items() if k[:2] in firsts]
    grouped = tables.by_degree(t)
    for deg in range(2 * max(DIMS) + 1):
        assert grouped.get(deg, []) == [v for k, v in t.items() if degree(k) == deg]


def test_swapped_is_the_koszul_transpose_and_its_own_inverse(field, rng):
    t = random_table(field, rng, 2)
    s = tables.swapped(field, t)
    rf = reference(field)
    for key in tuples(2):
        sign = rf.minus_one if key[0] * key[2] % 2 else rf.one
        want = dense_sum(field, [(sign, t[key])] if key in t else [], degree(key))
        assert s.get(key[2:] + key[:2], {}) == want
    assert list(tables.swapped(field, s).items()) == list(t.items())


def test_coefficients_list_each_nonzero_coordinate_in_table_order(field, rng):
    for raise_by in (0, 1):
        t = random_table(field, rng, 2, raise_by)
        listed = tables.coefficients(t, raise_by)
        for key in t:
            deg = degree(key) + raise_by
            for k in range(DIMS.get(deg, 0)):
                c = coordinate(field, t[key], k)
                assert ((key, lower(field, (c,))[0]) in listed.get((deg, k), [])) == (c != 0)
        assert all([k for k, _ in pairs] == [k for k in t if k in dict(pairs)]
                   for pairs in listed.values())


def test_row_coefficients_list_each_nonzero_entry_by_row(field, rng):
    f = random_map(field, rng)
    listed = tables.row_coefficients(f.blocks)
    for d, m in f.blocks.items():
        for i in range(m.nrows):
            want = [((d, j), x) for j, x in enumerate(lower(field, lift(field, row(m, i))))
                    if x]
            assert sorted(listed.get((d, i), [])) == want
    assert list(listed) == [(d, i) for d, m in f.blocks.items()
                            for i, r in enumerate(m.rows) if r]


def test_through_puts_each_key_in_the_place_of_the_slot(field, rng):
    """through(T, by(X, s)) at the key of X with T's key in the place of
    its slot s is sum_k T[key]_k X[... (|key| + raise_by, k) ...], over
    T of one or two slots."""
    for slots, raise_by, side in ((1, 1, 0), (2, 0, 0), (1, 0, 1)):
        t = random_table(field, rng, slots, raise_by)
        x = random_table(field, rng, 2)
        got = nonzero(tables.through(field, t, tables.by(x, side), raise_by))
        assert got == contraction(field, t, x, side, raise_by)


def test_substituted_puts_each_key_in_the_place_of_the_slot(field, rng):
    """substituted(by(X, s), coefficients(T)) is the sum of `through`, and
    with `out` and `sign` it adds sign(degree of the first element of
    the key) times that sum to what `out` holds."""
    t = random_table(field, rng, 2)
    x = random_table(field, rng, 2)
    for side in (0, 1):
        got = tables.substituted(field, tables.by(x, side), tables.coefficients(t))
        assert nonzero(got) == contraction(field, t, x, side)
    start = random_table(field, rng, 3)
    signed = tables.substituted(field, tables.by(x, 1), tables.coefficients(t),
                                {k: dict(v) for k, v in start.items()}, field.sign)
    rf = reference(field)
    want = {}
    for key in tuples(3):
        sign = rf.minus_one if key[0] % 2 else rf.one
        terms = [(sign * coordinate(field, t.get(key[2:], {}), k),
                  x.get(key[:2] + (degree(key[2:]), k), {}))
                 for k in range(DIMS.get(degree(key[2:]), 0))]
        want[key] = dense_sum(field, [(rf.one, start.get(key, {}))] + terms, degree(key))
    assert nonzero(signed) == nonzero(want)


def test_bilinear_is_the_image_of_two_vectors(field, rng):
    t = random_table(field, rng, 2)
    for d1, d2 in itertools.product(DIMS, repeat=2):
        v1, v2 = (random_table(field, rng, 1).get((d, 0), {}) for d in (d1, d2))
        terms = [(coordinate(field, v1, i1) * coordinate(field, v2, i2),
                  t.get((d1, i1, d2, i2), {}))
                 for i1 in range(DIMS[d1]) for i2 in range(DIMS[d2])]
        assert nonzero({0: tables.bilinear(field, t, d1, v1, d2, v2)}) == nonzero(
            {0: dense_sum(field, terms, d1 + d2)})


def test_table_major_and_index_major_contractions_agree(field, rng):
    """One sum, two walks: T through an index of X, and the index
    substituted with the coefficients of T, at either slot of X; and the
    first slot of X pulled back along a map f, through it from f's
    columns and substituted with f's row coefficients."""
    f = random_map(field, rng)
    t = random_table(field, rng, 1)
    x = random_table(field, rng, 2)
    for side in (0, 1):
        index = tables.by(x, side)
        assert (tables.through(field, t, index)
                == tables.substituted(field, index, tables.coefficients(t)))
    index = tables.by(x, 0)
    assert (tables.through(field, tables.columns(f), index)
            == tables.substituted(field, index, tables.row_coefficients(f.blocks)))
