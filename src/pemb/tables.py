"""Sparse structure-constant tables, indexed, contracted and transposed.

A table maps a key, the flat tuple (d1, i1, d2, i2, ...) of basis
elements (degree, index), to a vector {index: nonzero scalar}: the
product and action tables as stored, and the columns of a map.  An index
lists a table's entries by the element at one slot, as (key before it,
key after it, vector).  A contraction puts each key of another table in
the place of that slot, times its coefficient there; `through` walks the
other table and `substituted` the index, and each keeps its walk's order.
"""

from __future__ import annotations

from .linalg import axpy, scaled


def columns(glm):
    """{(d, j): image of basis element (d, j)} over the nonzero columns of
    a map."""
    cols = {}
    for d, m in glm.blocks.items():
        for r, row in enumerate(m.rows):
            for j, x in row.items():
                cols.setdefault((d, j), {})[r] = x
    return cols


def row_coefficients(blocks):
    """The `coefficients` of a map of degree 0 by its rows, in row order:
    {(d, i): [((d, j), c)]} over the entries c of row i of blocks[d]."""
    return {(d, i): [((d, j), c) for j, c in row.items()]
            for d, m in blocks.items() for i, row in enumerate(m.rows) if row}


def by(table, side):
    """The index of `table` by the element at position `side` of its keys, in table order."""
    out = {}
    at = 2 * side
    for key, v in table.items():
        out.setdefault(key[at:at + 2], []).append((key[:at], key[at + 2:], v))
    return out


def on_firsts(table, firsts):
    """The entries of `table` whose first element lies in the set `firsts`, in table order."""
    return {k: v for k, v in table.items() if k[:2] in firsts}


def by_degree(table):
    """{d1 + d2: [vector]} over the entries (d1, i1, d2, i2) -> vector of a
    table of pairs, in table order."""
    out = {}
    for (d1, _, d2, _), v in table.items():
        out.setdefault(d1 + d2, []).append(v)
    return out


def swapped(field, table):
    """(d2, i2, d1, i1) -> (-1)^(d1 d2) v for each entry (d1, i1, d2, i2) ->
    v, in table order; a vector of sign +1 is shared, not copied."""
    return {(d2, i2, d1, i1): v if (d1 * d2) % 2 == 0 else scaled(field, field.minus_one, v)
            for (d1, i1, d2, i2), v in table.items()}


def coefficients(table, raise_by=0):
    """{basis element b: [(key, c)]}: each entry key -> v of `table` under
    each b = (degree of key + raise_by, k) with v[k] = c."""
    out = {}
    for key, v in table.items():
        deg = sum(key[0::2]) + raise_by
        for k, c in v.items():
            out.setdefault((deg, k), []).append((key, c))
    return out


def through(field, table, index, raise_by=0):
    """{head + key + tail: sum of c * w} over each entry key -> v of
    `table`, each coefficient c of v at basis element b = (degree of key
    + raise_by, k) and each (head, tail, w) that `index` lists under b."""
    out = {}
    for key, v in table.items():
        deg = sum(key[0::2]) + raise_by
        for k, c in v.items():
            for head, tail, w in index.get((deg, k), ()):
                axpy(field, out.setdefault(head + key + tail, {}), c, w)
    return out


def substituted(field, index, coeffs, out=None, sign=None):
    """Add c * w to out[head + key + tail] for each (head, tail, w) that
    `index` lists under b and each (key, c) that `coeffs`, shaped as
    `coefficients`, lists under b; with `sign`, c also picks up
    sign(degree of the new key's first element)."""
    out = {} if out is None else out
    for b, pairs in index.items():
        for key, c in coeffs.get(b, ()):
            for head, tail, w in pairs:
                k = head + key + tail
                axpy(field, out.setdefault(k, {}), c * sign(k[0]) if sign else c, w)
    return out


def bilinear(field, table, d1, v1, d2, v2):
    """The sum of c1 * c2 * table[(d1, i1, d2, i2)] over the coefficients
    c1 of v1 at i1 and c2 of v2 at i2: two vectors through a table."""
    out = {}
    for i1, c1 in v1.items():
        for i2, c2 in v2.items():
            w = table.get((d1, i1, d2, i2))
            if w is not None:
                axpy(field, out, c1 * c2, w)
    return out
