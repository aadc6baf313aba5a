"""Axiom checks for CDGAs, DG modules and their morphisms.

Each check compares the two sides of an identity on every basis tuple,
but reaches the tuples only through the nonzero entries of the product
and action tables and of the differential and map columns: where every
partial product vanishes, both sides are zero.  The witness is the first
failing tuple by axiom (unit, commutativity, associativity, Leibniz),
then degrees, then indices: where the exhaustive loops stop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import is_zero_vec, sub_vec

_MESSAGES = {
    "grading": "algebra must be nonnegatively graded",
    "unit vector": "unit must be a nonzero degree-0 vector",
    "unit cocycle": "unit must be a cocycle",
    "unit": "unit law fails on %s",
    "right unit": "unit law (right) fails on %s",
    "commutativity": "commutativity fails on (%s, %s)",
    "associativity": "associativity fails on (%s, %s, %s)",
    "Leibniz": "Leibniz fails on (%s, %s)",
    "degree": "morphism must preserve degree",
    "chain map": "morphism is not a chain map",
    "unit preservation": "morphism does not preserve the unit",
    "multiplicativity": "morphism not multiplicative on (%s, %s)",
    "module unit": "unit does not act as identity on %s",
    "module associativity": "action not associative on (%s, %s, %s)",
    "module Leibniz": "action Leibniz fails on (%s, %s)",
    "module degree": "module morphisms must have degree 0",
    "module chain map": "module morphism is not a chain map",
    "linearity": "morphism not linear over (%s) at %s",
}


@dataclass(frozen=True)
class Witness:
    """First failure of an axiom: the failing basis tuple as (degree,
    index) pairs and their labels, and lhs - rhs, a vector of the given
    degree.  str() is the sentence the validators raise."""

    axiom: str
    basis: tuple
    labels: tuple
    degree: int
    defect: tuple

    def __str__(self):
        text = _MESSAGES[self.axiom]
        return text % self.labels if "%s" in text else text


# A table maps tuples of basis elements, each a (degree, index) pair, to
# sparse vectors {index: nonzero coefficient}.


def _sparse(v):
    return {i: c for i, c in enumerate(v) if c != 0}


def _scaled(s, v):
    return {i: s * c for i, c in v.items()}


def _table(left, right, entries):
    """A product or action table; keys naming no basis element are never
    reached by the exhaustive loops, and are dropped."""
    return {((d1, i1), (d2, i2)): _sparse(v)
            for (d1, i1, d2, i2), v in entries.items()
            if 0 <= i1 < left.dim(d1) and 0 <= i2 < right.dim(d2)}


def _products(a):
    """Every nonzero product of two basis elements, as `Cdga.mul_basis`
    reads it: a missing order follows by graded commutativity."""
    given = _table(a.space, a.space, a.product)
    full = dict(given)
    for (x, y), v in given.items():
        if (y, x) not in given:
            full[y, x] = _scaled(a.field.sign(x[0] * y[0]), v)
    return full


def _columns(glm):
    """{(e,): image of basis element e} over the nonzero columns of a map."""
    cols = {}
    for d, m in glm.blocks.items():
        for r, row in enumerate(m.entries):
            for j, x in enumerate(row):
                if x != 0:
                    cols.setdefault(((d, j),), {})[r] = x
    return cols


def _by(table, side):
    """{basis element at position `side` of a key: [(rest of the key, vector)]}."""
    out = {}
    for key, v in table.items():
        out.setdefault(key[side], []).append((key[:side] + key[side + 1:], v))
    return out


def _through(table, index, out=None, raise_by=0, prepend=False, sign=None):
    """Add c * w to out[key + rest] (out[rest + key] with `prepend`) for
    each entry key -> v of `table`, each coefficient c of v at basis
    element b = (degree of key + raise_by, k) and each (rest, w) that
    `index` lists under b; with `sign`, c also picks up
    sign(degree of rest[0])."""
    out = {} if out is None else out
    for key, v in table.items():
        deg = sum(d for d, _ in key) + raise_by
        for k, c in v.items():
            for rest, w in index.get((deg, k), ()):
                s = c * sign(rest[0][0]) if sign else c
                acc = out.setdefault(rest + key if prepend else key + rest, {})
                for i, x in w.items():
                    acc[i] = acc[i] + s * x if i in acc else s * x
    return out


def _degree_major(key):
    return tuple(d for d, _ in key) + tuple(i for _, i in key)


def _first_failure(axiom, lhs, rhs, spaces, target, raise_by=0,
                   order=_degree_major, keep=None):
    """Witness at the first key by `order` where the two sides differ.

    Keys are tuples of basis elements of `spaces`; the defect lies in
    `target`, in their total degree plus raise_by.
    """
    best = None
    for key in lhs.keys() | rhs.keys():
        if keep is not None and not keep(key):
            continue
        diff = dict(lhs.get(key, {}))
        for i, x in rhs.get(key, {}).items():
            diff[i] = diff[i] - x if i in diff else -x
        diff = {i: x for i, x in diff.items() if x != 0}
        if diff and (best is None or order(key) < order(best[0])):
            best = key, diff
    if best is None:
        return None
    key, diff = best
    degree = sum(d for d, _ in key) + raise_by
    z = target.field.zero
    return Witness(axiom, key, tuple(s.label(d, i) for s, (d, i) in zip(spaces, key)),
                   degree, tuple(diff.get(i, z) for i in range(target.dim(degree))))


def _unit_law(unit, sides, space):
    """First basis element of `space` that the unit fails to fix; sides
    are (axiom, index of the products with degree-0 elements), tried in
    turn on each element."""
    one = space.field.one
    ident = {((d, i),): {i: one} for d in space.degrees() for i in range(space.dim(d))}
    found = [_first_failure(axiom, _through({(): _sparse(unit)}, index), ident,
                            (space,), space) for axiom, index in sides]
    return min((w for w in found if w), key=lambda w: w.basis, default=None)


def _chain_map(f, source, target, axiom):
    """First basis element e of `source` with d f(e) != f(d e), for a
    degree-0 map f."""
    fcol = _columns(f)
    return _first_failure(axiom, _through(fcol, _by(_columns(target.d), 0)),
                          _through(_columns(source.d), _by(fcol, 0), raise_by=1),
                          (source.space,), target.space, raise_by=1)


# -- the four checks ------------------------------------------------------


def check_cdga(a):
    """First failure of the CDGA axioms on `a`, or None."""
    sp, sign = a.space, a.field.sign
    if sp.window.lo < 0:
        return Witness("grading", (), (), sp.window.lo, ())
    if len(a.unit) != sp.dim(0) or is_zero_vec(a.unit):
        return Witness("unit vector", (), (), 0, a.unit)
    if not is_zero_vec(a.d_vec(0, a.unit)):
        return Witness("unit cocycle", (), (), 1, a.d_vec(0, a.unit))
    full = _products(a)
    left, right = _by(full, 0), _by(full, 1)
    witness = _unit_law(a.unit, (("unit", left), ("right unit", right)), sp)
    if witness:
        return witness
    given = _table(sp, sp, a.product)
    both = [k for k in given if k[::-1] in given]
    witness = _first_failure(
        "commutativity", {k: given[k] for k in both},
        {k: _scaled(sign(k[0][0] * k[1][0]), given[k[::-1]]) for k in both},
        (sp, sp), sp)
    if witness:
        return witness
    # (xy)z and x(yz)
    witness = _first_failure("associativity", _through(full, left),
                             _through(full, right, prepend=True), (sp, sp, sp), sp)
    if witness:
        return witness
    # d(xy) and d(x)y + (-1)^|x| x d(y)
    d = _columns(a.complex.d)
    rhs = _through(d, left, raise_by=1)
    _through(d, right, rhs, raise_by=1, prepend=True, sign=sign)
    return _first_failure("Leibniz", _through(full, _by(d, 0)), rhs, (sp, sp), sp,
                          raise_by=1)


def check_cdga_morphism(f):
    """First failure of `f` as a unit-preserving multiplicative chain map
    of CDGAs, or None."""
    src, tgt = f.source, f.target
    if f.map.shift != 0:
        return Witness("degree", (), (), f.map.shift, ())
    witness = _chain_map(f.map, src.complex, tgt.complex, "chain map")
    if witness:
        return witness
    fu = f.apply(0, src.unit)
    if fu != tgt.unit:
        return Witness("unit preservation", (), (), 0, sub_vec(fu, tgt.unit))
    # f(xy) and f(x)f(y), through the products t f(y) of target elements t
    fcol = _columns(f.map)
    t_fy = _through(fcol, _by(_products(tgt), 1), prepend=True)
    hi = min(src.space.window.hi, tgt.space.window.hi)
    return _first_failure("multiplicativity", _through(_products(src), _by(fcol, 0)),
                          _through(fcol, _by(t_fy, 0)), (src.space, src.space),
                          tgt.space, keep=lambda key: key[0][0] + key[1][0] <= hi)


def check_module(m):
    """First failure of the DG-module axioms on `m`, or None."""
    a, sp = m.algebra, m.space
    act = _table(a.space, sp, m.action)
    by_alg, by_mod = _by(act, 0), _by(act, 1)
    witness = _unit_law(a.unit, (("module unit", by_alg),), sp)
    if witness:
        return witness
    # x.(y.n) and (xy).n
    witness = _first_failure("module associativity", _through(act, by_mod, prepend=True),
                             _through(_products(a), by_alg), (a.space, a.space, sp), sp)
    if witness:
        return witness
    # d(x.n) and d(x).n + (-1)^|x| x.d(n)
    dmod = _columns(m.complex.d)
    rhs = _through(_columns(a.complex.d), by_alg, raise_by=1)
    _through(dmod, by_mod, rhs, raise_by=1, prepend=True, sign=m.field.sign)
    return _first_failure("module Leibniz", _through(act, _by(dmod, 0)), rhs,
                          (a.space, sp), sp, raise_by=1)


def check_module_morphism(f):
    """First failure of `f` as a degree-0 linear chain map of modules over
    one algebra, or None."""
    src, tgt = f.source, f.target
    if f.map.shift != 0:
        return Witness("module degree", (), (), f.map.shift, ())
    witness = _chain_map(f.map, src.complex, tgt.complex, "module chain map")
    if witness:
        return witness
    # f(x.n) and x.f(n), ordered by the algebra element first
    a, fcol = src.algebra, _columns(f.map)
    return _first_failure(
        "linearity", _through(_table(a.space, src.space, src.action), _by(fcol, 0)),
        _through(fcol, _by(_table(a.space, tgt.space, tgt.action), 1), prepend=True),
        (a.space, src.space), tgt.space, order=lambda key: key)


# -- closure of a graded subspace ------------------------------------------


def escape_degree(spans, reducers, images):
    """First degree where an image of a span vector leaves the span, or
    None when the span is closed.

    images(d, v) yields (degree, vector) images of v in spans[d];
    reducers[t] tests membership in degree t (a degree without one is
    zero, and so is every vector in it).
    """
    for d, vs in spans.items():
        for v in vs:
            for t, w in images(d, v):
                red = reducers.get(t)
                if red is not None and not red.contains(w):
                    return t
    return None


def left_multiples(algebra, act, hi):
    """`escape_degree` images: act(e, basis vector, d, v) for every basis
    element of `algebra`, up to degree hi."""
    def images(d, v):
        for e in algebra.space.degrees():
            if d + e <= hi:
                for i in range(algebra.space.dim(e)):
                    yield d + e, act(e, algebra.basis_vec(e, i), d, v)
    return images
