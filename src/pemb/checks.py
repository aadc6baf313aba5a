"""Axiom checks for CDGAs, DG modules and their morphisms.

Each runs once per object: the parser checks what it reads, a report
what it certifies; constructions from checked objects are not checked.
A free presentation that a file repeats under other generator names is
checked once: the copies share the checked algebra's tables, unit and
proof record, and `check_cdga` reads only the field, the dimensions,
the tables and the unit, none of which the names change.  So is a map
equal to an earlier one of the file between algebras sharing its ends'
tables, since `check_cdga_morphism` reads only the map, the tables and
the records.

Each check compares the two sides of an identity on basis tuples, but
reaches the tuples only through the nonzero entries of the product and
action tables and of the differential and map columns: where every
partial product vanishes, both sides are zero.  The tables are walked as
they are stored, keys (d1, i1, d2, i2) to vectors {index: nonzero
scalar}, and every key and index must name a basis element.  The
constructors of `Cdga` and `DgModule` take their tables as they are and
check nothing; `validate` is the one index and axiom check.  Every
table the package builds (explicit algebras the parser reads,
materialized presentations, cohomology algebras, quotients, direct
sums, cone products and the H-algebra of `lefschetz`; the algebra
acting on itself, restrictions of scalars, suspensions, duals, mapping
cones, free modules, direct sums and the pipelines' trivial actions)
has its indices by construction, since each builder writes only
indices it numbered itself
(basis labels, standard monomials, cohomology classes, free modules,
quotient bases, trivial actions),
read off a checked table or map (restrictions, duals, cone products),
or shifted by the offsets of the degreewise stacking it built
(suspensions, cones, sums).  So that a faulty builder is still named,
not met as an IndexError, `check_cdga` tests the indices of the product
table, and `check_module` and `check_module_morphism` those of every
module they read (`outside_basis`), before any axiom.  The witness is
the first failing tuple by axiom (unit, right unit, commutativity,
associativity, Leibniz), then degrees, then indices: where the
exhaustive loops stop.

`check_cdga` checks the unit laws on every basis element, then decides
commutativity, associativity and Leibniz on the pairs and triples whose
first factor lies in a generating set S, a chunk of S at a time, and
walks the rest only for an algebra that fails, to name its witness:
each axiom in turn, one degree of the first factor at a time.  The
products of a chunk's first factors are built once, and commutativity
writes out the two sides only at the pairs that differ.

Lemma.  Let A be graded in degrees 0..hi, with a bilinear product of
degree 0 (zero into degrees above hi), a map d of degree +1 and a
1 in A^0 with d(1) = 0 and 1x = x1 = x for every x.  Let S be a set of
elements such that 1 and S^0 span A^0, and S^n and the products uv with
0 < |u|, |v| < n span A^n for n > 0.  If (sy)z = s(yz) for all s in S
and all y, z, the product is associative.  If moreover
d(sy) = d(s)y + (-1)^|s| s d(y) for all s in S and all y, d is a
derivation; and if sy = (-1)^(|s||y|) ys for all s in S and all y, the
product is graded commutative.

Proof.  The three identities are linear in the first factor x, so it
is enough to take x in a spanning set; induct on |x| = n, for all y, z
at once.  In degree 0, x = 1 satisfies all three by the unit laws and
d(1) = 0: (1y)z = yz = 1(yz), d(1y) = dy = d(1)y + 1dy and 1y = y1.
Elements of S are given.  It remains x = uv with 0 < |u|, |v| < n, for
which the identities hold with u or v as first factor.  Associativity
first:

    ((uv)y)z = (u(vy))z = u((vy)z) = u(v(yz)) = (uv)(yz),

each step an identity with first factor u or v.  Then, with
associativity known on all triples, and Leibniz for u, v and (u, v):

    d((uv)y) = d(u(vy)) = du (vy) + (-1)^|u| u d(vy)
             = (du v)y + (-1)^|u| (u dv)y + (-1)^(|u|+|v|) (uv) dy
             = d(uv) y + (-1)^|uv| (uv) dy.

Commutativity likewise, with associativity known on all triples, and
with e(a, b) = (-1)^(|a||b|), so that e(u, y) e(v, y) = e(uv, y):

    (uv)y = u(vy) = e(v, y) u(yv) = e(v, y) (uy)v
          = e(v, y) e(u, y) (yu)v = e(uv, y) y(uv),

by associativity, commutativity with first factor v, associativity,
commutativity with first factor u and associativity.

`generating_set` reads S off the stored table, so the check trusts no
construction: the complement of one coordinate of the unit in A^0, and
in each degree n > 0 the basis elements off the pivots of one `rref` of
the stored products of two elements of positive degree.

`check_cdga` leaves S on an algebra it passes, as `proven_generators`,
its proof record; any other algebra holds None there, and so does every
algebra built from a proven one, since the constructor starts the
record at None and no table is changed after construction.

`check_cdga_morphism` checks the degree, the chain-map rule and the unit
on every basis element.  Where both ends carry a proof record it decides
multiplicativity on the pairs whose first factor lies in S of the
source, and walks every pair only where that fails, to name its
witness; where either end carries none, it walks every pair.

Lemma.  Let A and B be graded algebras as above, up to degrees hi_A and
hi_B, both associative with unit laws, hi = min(hi_A, hi_B), S a set for
A as above, and f: A -> B linear of degree 0 with f(1) = 1.  If
f(sy) = f(s)f(y) for all s in S and all y with |s| + |y| <= hi, then
f(xy) = f(x)f(y) for all x, y with |x| + |y| <= hi.

Proof.  Linear in x; induct on |x| = n.  For x = 1 the unit laws give
f(1y) = f(y) = f(1)f(y); elements of S are given.  It remains x = uv
with 0 < |u|, |v| < n:

    f((uv)y) = f(u(vy)) = f(u)f(vy) = f(u)(f(v)f(y))
             = (f(u)f(v))f(y) = f(uv)f(y),

by associativity in A, the identity for u (at vy, as |u| + |vy| <= hi),
for v, associativity in B, and the identity for u at v (|uv| <= hi).

So the walk on S decides the parsed `phi`, since the parser checks the
algebras it reads before its morphisms; `truncated_cone`'s `base_map`,
into the quotient it checks; and the maps that the square pipelines
check between parsed or checked corners, the cone products of
`stable-square` among them, proven by their Leibniz reports.

A CDGA is a module over itself, so one walk decides (xy).n = x.(y.n)
and d(x.n) = d(x).n + (-1)^|x| x.d(n) for both.  The same induction
proves the module axioms and linearity from their instances with the
algebra factor in S.

Lemma.  Let A be an algebra as above that passed `check_cdga`, with S
its proof record, and M a graded space with a differential and an
action of A of degree 0 (zero outside M's degrees) on which 1 acts as
the identity.  If (sy).n = s.(y.n) for all s in S and all y, n, the
action is associative; if moreover d(s.n) = d(s).n + (-1)^|s| s.d(n)
for all s in S and all n, M is a DG module.  If M and N are such modules
over A and f: M -> N is linear of degree 0 with f(s.n) = s.f(n) for all
s in S and all n, then f is A-linear.

Proof.  Linear in x; induct on |x|.  x = 1 holds by the unit laws (and
d(1) = 0), elements of S are given, and it remains x = uv with
0 < |u|, |v| < |x|.  With associativity in A and the identities for u
and v:

    ((uv)y).n = (u(vy)).n = u.((vy).n) = u.(v.(y.n)) = (uv).(y.n).

Then, with the action associative for every first factor, and A's
Leibniz rule:

    d((uv).n) = d(u.(v.n)) = du.(v.n) + (-1)^|u| u.(dv.n) + (-1)^|uv| u.(v.dn)
              = (du v + (-1)^|u| u dv).n + (-1)^|uv| (uv).dn,

and, with the actions of M and N associative,

    f((uv).n) = f(u.(v.n)) = u.f(v.n) = u.(v.f(n)) = (uv).f(n).

So `check_module` walks the first factors in S where its algebra carries
a proof record, and every first factor where it carries none; either
way the rest only for a module that fails, to name its witness, as
`check_cdga` does.  On a module over a proven algebra that passes, it
leaves the record (S, G), where G is a module generating set: M is
spanned by G and A^+.M, A^+ the elements of positive degree, so by
induction on the degree (M is bounded below) every element is a sum of
products a.g with g in G.  `module_generating_set` reads G off the
stored action as `generating_set` reads S off the stored products: in
each degree the basis elements off the pivots of one `rref` of the
stored actions x.m with |x| > 0.  Modules built from checked ones start
without a record, as algebras do; `modules.algebra_as_module` of a
proven algebra carries its record, S and the basis of A^0, since the
algebra's walk on S is the module walk and A^+.A holds every element of
positive degree.  `check_module_morphism` tests the indices of an end
without a record (one with a record passed that test in its check),
and decides linearity on the pairs whose algebra factor lies in S where
both ends carry a record and share one algebra, walking every pair
where that fails, to name its witness; elsewhere it walks every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, axpy, scaled

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
    "algebra basis": "product of (%s,%s)*(%s,%s) names no basis element",
    "module basis": "action (%s,%s) on (%s,%s) names no basis element",
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
    defect: dict

    def __str__(self):
        text = _MESSAGES[self.axiom]
        return text % self.labels if "%s" in text else text


# A table maps a key, the flat tuple (d1, i1, d2, i2, ...) of a sequence
# of basis elements (degree, index), to a vector: the tables of `Cdga`
# and `DgModule` as they are stored.


def _columns(glm):
    """{(d, j): image of basis element (d, j)} over the nonzero columns of
    a map."""
    cols = {}
    for d, m in glm.blocks.items():
        for r, row in enumerate(m.rows):
            for j, x in row.items():
                cols.setdefault((d, j), {})[r] = x
    return cols


def _by(table, side):
    """{basis element at position `side` of a key: [(rest of the key, vector)]}."""
    out = {}
    at = 2 * side
    for key, v in table.items():
        out.setdefault(key[at:at + 2], []).append((key[:at] + key[at + 2:], v))
    return out


def _through(field, table, index, raise_by=0):
    """{key + rest: sum of c * w} over each entry key -> v of `table`,
    each coefficient c of v at basis element b = (degree of key +
    raise_by, k) and each (rest, w) that `index` lists under b."""
    out = {}
    for key, v in table.items():
        deg = sum(key[0::2]) + raise_by
        for k, c in v.items():
            for rest, w in index.get((deg, k), ()):
                axpy(field, out.setdefault(key + rest, {}), c, w)
    return out


def _coefficients(table, raise_by=0):
    """{basis element b: [(key, c)]}: each entry key -> v of `table` under
    each b = (degree of key + raise_by, k) with v[k] = c."""
    out = {}
    for key, v in table.items():
        deg = sum(key[0::2]) + raise_by
        for k, c in v.items():
            out.setdefault((deg, k), []).append((key, c))
    return out


def _prepended(field, index, coefficients, out=None, sign=None):
    """Add c * w to out[rest + key] for each (rest, w) that `index` lists
    under a basis element b and each (key, c) that the `_coefficients` of
    a table list under b; with `sign`, c also picks up sign(degree of
    the first element of rest)."""
    out = {} if out is None else out
    for b, pairs in index.items():
        for key, c in coefficients.get(b, ()):
            for rest, w in pairs:
                axpy(field, out.setdefault(rest + key, {}),
                     c * sign(rest[0]) if sign else c, w)
    return out


def _degree_major(key):
    return key[0::2] + key[1::2]


def _first_failure(axiom, lhs, rhs, spaces, target, raise_by=0,
                   order=_degree_major, keep=None):
    """Witness at the first key by `order` where the two sides differ.

    Keys are tuples of basis elements of `spaces`; the defect lies in
    `target`, in their total degree plus raise_by.
    """
    best = None
    field = target.field
    for key in lhs.keys() | rhs.keys():
        if keep is not None and not keep(key):
            continue
        u, v = lhs.get(key, {}), rhs.get(key, {})
        if u == v:
            continue
        diff = dict(u)
        axpy(field, diff, field.minus_one, v)
        if diff and (best is None or order(key) < order(best[0])):
            best = key, diff
    if best is None:
        return None
    key, diff = best
    basis = tuple(zip(key[0::2], key[1::2]))
    return Witness(axiom, basis, tuple(s.label(d, i) for s, (d, i) in zip(spaces, basis)),
                   sum(key[0::2]) + raise_by, diff)


def _unit_law(unit, sides, space):
    """First basis element of `space` that the unit fails to fix; sides
    are (axiom, index of the products with degree-0 elements), tried in
    turn on each element."""
    one = space.field.one
    ident = {(d, i): {i: one} for d in space.degrees() for i in range(space.dim(d))}
    found = [_first_failure(axiom, _through(space.field, {(): unit}, index), ident,
                            (space,), space) for axiom, index in sides]
    return min((w for w in found if w), key=lambda w: w.basis, default=None)


def _chain_map(f, source, target, axiom):
    """First basis element e of `source` with d f(e) != f(d e), for a
    degree-0 map f."""
    field, fcol = target.field, _columns(f)
    return _first_failure(axiom, _through(field, fcol, _by(_columns(target.d), 0)),
                          _through(field, _columns(source.d), _by(fcol, 0), raise_by=1),
                          (source.space,), target.space, raise_by=1)


# -- the four checks ------------------------------------------------------


def check_cdga(a):
    """First failure of the CDGA axioms on `a`, or None; first of all, a
    product entry that names no basis element."""
    sp = a.space
    witness = outside_basis(sp, sp, a.product, "algebra basis")
    if witness:
        return witness
    if sp.window.lo < 0:
        return Witness("grading", (), (), sp.window.lo, {})
    if not a.unit or any(not 0 <= i < sp.dim(0) for i in a.unit):
        return Witness("unit vector", (), (), 0, a.unit)
    du = a.d_vec(0, a.unit)
    if du:
        return Witness("unit cocycle", (), (), 1, du)
    walk = _Walk(a)
    right = _by({k: v for k, v in a.both_orders.items() if not k[2]}, 1)
    witness = _unit_law(a.unit, (("unit", walk.left), ("right unit", right)), sp)
    if witness:
        return witness
    s = generating_set(a)
    if walk.holds_on(s):
        a.proven_generators = s
        return None
    return walk.first_failure()


# The most partial products (xy).n that several first factors may share
# one walk with; each costs about half a kilobyte while it is held.
_CHUNK = 128


class _Walk:
    """The axioms of the action of a CDGA `a` on itself (commutativity,
    associativity and Leibniz) or on `module` (module associativity and
    module Leibniz), walked over the tuples whose first factor x, an
    element of `a`, lies in a given set of basis elements.  The indices
    of the product and action tables and of the columns of d are built
    once, so that a walk reaches only the tuples with a nonzero partial
    product.  Given the first factors `firsts` it will walk, a module
    walk indexes the products xy of `a` for those x alone, and indexes
    every x only for the exhaustive walk of `first_failure`."""

    def __init__(self, a, module=None, firsts=None):
        self.axioms = (("commutativity", "associativity", "Leibniz") if module is None
                       else ("module associativity", "module Leibniz"))
        self.algebra, self.field, self.table = a.space, a.field, a.both_orders
        partial = module is not None and firsts is not None
        self.every = None if partial else _by(a.both_orders, 0)
        self.products = self.left = _rows(a, firsts) if partial else self.every
        self.d_algebra = d = _columns(a.complex.d)
        self.space, action = a.space, a.both_orders
        if module is not None:
            self.space, action, d = module.space, module.action, _columns(module.complex.d)
            self.left = _by(action, 0)
        self.acting_with = _coefficients(action)
        self.d_index, self.d_with = _by(d, 0), _coefficients(d, raise_by=1)

    def failures(self, firsts, axioms):
        """The first failure of each of `axioms` in turn, or None where it
        holds, on the tuples whose first factor is in `firsts`; generated
        lazily, from the products xy and x.n of the first factors built
        once."""
        field, alg, sp, table = self.field, self.algebra, self.space, self.table
        rows = {x + rest: v for x in firsts for rest, v in self.products.get(x, ())}
        # the actions x.n: with no module given, the products xy
        acts = rows if self.left is self.products else {
            x + rest: v for x in firsts for rest, v in self.left.get(x, ())}
        # the actions x.k, indexed by k
        right = _by(acts, 1)
        for axiom in axioms:
            if axiom == "commutativity":
                # xy and (-1)^(|x||y|) yx, written out only where they differ
                bad = [k for k, v in rows.items()
                       if v != (table[k[2:] + k[:2]] if (k[0] * k[2]) % 2 == 0
                                else scaled(field, field.minus_one, table[k[2:] + k[:2]]))]
                yield _first_failure(
                    axiom, {k: rows[k] for k in bad},
                    {k: scaled(field, field.sign(k[0] * k[2]), table[k[2:] + k[:2]])
                     for k in bad}, (sp, sp), sp) if bad else None
            elif axiom.endswith("associativity"):
                # (xy).n and x.(y.n); a module's defect is x.(y.n) - (xy).n
                xy_n = _through(field, rows, self.left)
                x_yn = _prepended(field, right, self.acting_with)
                yield _first_failure(axiom, *((xy_n, x_yn) if axiom == "associativity"
                                              else (x_yn, xy_n)), (alg, alg, sp), sp)
            else:
                # d(x.n) and d(x).n + (-1)^|x| x.d(n)
                d = self.d_algebra
                rhs = _through(field, {x: d[x] for x in firsts if x in d}, self.left, raise_by=1)
                _prepended(field, right, self.d_with, rhs, sign=field.sign)
                yield _first_failure(axiom, _through(field, acts, self.d_index), rhs,
                                     (alg, sp), sp, raise_by=1)

    def holds_on(self, firsts):
        """Whether the axioms hold on the tuples whose first factor is in
        `firsts`, walked in chunks of consecutive first factors: a chunk
        is one first factor, or several whose partial products (xy).n
        number at most `_CHUNK`.  A walk so holds no more at a time than
        one first factor at a time would, or than `_CHUNK` products, and
        first factors with few products share a walk."""
        chunk, total = [], 0
        for x in firsts:
            n = sum(len(self.left.get((x[0] + rest[0], k), ()))
                    for rest, v in self.products.get(x, ()) for k in v)
            if chunk and total + n > _CHUNK:
                if not self._holds(chunk):
                    return False
                chunk, total = [], 0
            chunk.append(x)
            total += n
        return self._holds(chunk)

    def _holds(self, firsts):
        return not any(self.failures(firsts, self.axioms))

    def first_failure(self):
        """The first failure by axiom, then in degree-major order: each
        axiom walked one degree of the first factor at a time, up to the
        first degree that fails."""
        alg = self.algebra
        if self.every is None:
            self.products = self.every = _by(self.table, 0)
        for axiom in self.axioms:
            for deg in alg.degrees():
                witness, = self.failures([(deg, i) for i in range(alg.dim(deg))], (axiom,))
                if witness:
                    return witness
        return None


def _rows(a, firsts):
    """`_by(a.both_orders, 0)` on the first factors x in `firsts` alone."""
    wanted = set(firsts)
    return _by({k: v for k, v in a.both_orders.items() if k[:2] in wanted}, 0)


def generating_set(a):
    """S of the module docstring, as (degree, index) pairs: every basis
    element of degree 0 but the first one the unit involves, and in each
    degree n > 0 the basis elements off the pivots of one `rref` of the
    stored products uv, 0 < |u|, |v| < n, one per unordered pair."""
    sp = a.space
    first = min(a.unit)
    products = {}
    for (d1, i1, d2, i2), v in a.both_orders.items():
        if d1 and d2 and (d1, i1) <= (d2, i2):
            products.setdefault(d1 + d2, []).append(v)
    return ([(0, i) for i in range(sp.dim(0)) if i != first]
            + _off_pivots(a.field, sp, products, [d for d in sp.degrees() if d]))


def module_generating_set(m):
    """G of the module docstring: in each degree the basis elements off
    the pivots of one `rref` of the stored actions x.n with |x| > 0."""
    actions = {}
    for (d1, _, d2, _), v in m.action.items():
        if d1:
            actions.setdefault(d1 + d2, []).append(v)
    return _off_pivots(m.field, m.space, actions, m.space.degrees())


def _off_pivots(field, space, rows, degrees):
    """The basis elements (degree, index) of `space` in `degrees` off the
    pivots of one `rref` of the vectors rows[degree]."""
    out = []
    for deg in degrees:
        vs = rows.get(deg, ())
        # rows of one term each span the coordinates they name
        pivots = ({i for v in vs for i in v} if all(len(v) == 1 for v in vs)
                  else set(Matrix.sparse(field, vs, space.dim(deg)).rref()[1]))
        out += [(deg, i) for i in range(space.dim(deg)) if i not in pivots]
    return out


def check_cdga_morphism(f):
    """First failure of `f` as a unit-preserving multiplicative chain map
    of CDGAs, or None."""
    src, tgt = f.source, f.target
    field = tgt.field
    if f.map.shift != 0:
        return Witness("degree", (), (), f.map.shift, {})
    witness = _chain_map(f.map, src.complex, tgt.complex, "chain map")
    if witness:
        return witness
    fu = f.apply(0, src.unit)
    if fu != tgt.unit:
        axpy(field, fu, field.minus_one, tgt.unit)
        return Witness("unit preservation", (), (), 0, fu)
    fcol = _columns(f.map)
    hi = min(src.space.window.hi, tgt.space.window.hi)
    s = src.proven_generators
    if (s is not None and tgt.proven_generators is not None
            and _multiplicativity(f, fcol, hi, set(s)) is None):
        return None
    return _multiplicativity(f, fcol, hi)


def _multiplicativity(f, fcol, hi, firsts=None):
    """First pair (x, y), |x| + |y| <= hi, with f(xy) != f(x)f(y), or
    None; with `firsts`, only the pairs whose x lies in it, reached
    through the source products with first factor x and the target
    products with first factor in the support of f(x)."""
    src, tgt = f.source, f.target
    field = tgt.field
    products, xcols, tproducts = src.both_orders, fcol, tgt.both_orders
    if firsts is not None:
        xcols = {x: v for x, v in fcol.items() if x in firsts}
        support = {(x[0], k) for x, v in xcols.items() for k in v}
        products = {k: v for k, v in products.items() if k[:2] in firsts}
        tproducts = {k: v for k, v in tproducts.items() if k[:2] in support}
    # f(xy) and f(x)f(y), through the products t f(y) of target elements t
    t_fy = _prepended(field, _by(tproducts, 1), _coefficients(fcol))
    return _first_failure("multiplicativity", _through(field, products, _by(fcol, 0)),
                          _through(field, xcols, _by(t_fy, 0)), (src.space, src.space),
                          tgt.space, keep=lambda key: key[0] + key[2] <= hi)


def outside_basis(left, right, table, axiom="module basis"):
    """The first entry of a table of products of basis elements of the
    space `left` with those of `right`, landing in `right` (an action
    table, or with `axiom` "algebra basis" a product table), in table
    order, whose key or some index of whose vector names no basis
    element, or None."""
    ldims, rdims = left.dims, right.dims
    for (d1, i1, d2, i2), v in table.items():
        n = rdims.get(d1 + d2, 0)
        if not (0 <= i1 < ldims.get(d1, 0) and 0 <= i2 < rdims.get(d2, 0)) or (
                v and not (0 <= min(v) and max(v) < n)):
            return Witness(axiom, ((d1, i1), (d2, i2)), (d1, i1, d2, i2), d1 + d2, v)
    return None


def check_module(m):
    """First failure of the DG-module axioms on `m`, or None; first of
    all, an action entry that names no basis element.  A module over a
    proven algebra that passes keeps (S, G) as `proven_generators`."""
    a, alg = m.algebra, m.algebra.space
    witness = outside_basis(alg, m.space, m.action)
    if witness:
        return witness
    s = a.proven_generators
    walk = _Walk(a, m, s)
    witness = _unit_law(a.unit, (("module unit", walk.left),), m.space)
    if witness:
        return witness
    if walk.holds_on(s if s is not None else
                     [(d, i) for d in alg.degrees() for i in range(alg.dim(d))]):
        if s is not None:
            m.proven_generators = s, module_generating_set(m)
        return None
    return walk.first_failure()


def check_module_morphism(f):
    """First failure of `f` as a degree-0 linear chain map of modules over
    one algebra, or None; an action entry of its source or target that
    names no basis element comes before the chain-map rule."""
    src, tgt = f.source, f.target
    if f.map.shift != 0:
        return Witness("module degree", (), (), f.map.shift, {})
    # an end with a proof record had its indices tested by its check
    witness = (src.proven_generators is None
               and outside_basis(src.algebra.space, src.space, src.action)
               or tgt.proven_generators is None
               and outside_basis(tgt.algebra.space, tgt.space, tgt.action)
               or _chain_map(f.map, src.complex, tgt.complex, "module chain map"))
    if witness:
        return witness
    fcol = _columns(f.map)
    if (src.proven_generators is not None and tgt.proven_generators is not None
            and src.algebra is tgt.algebra
            and _linearity(f, fcol, set(src.proven_generators[0])) is None):
        return None
    return _linearity(f, fcol)


def _linearity(f, fcol, firsts=None):
    """First pair (x, n) with f(x.n) != x.f(n), ordered by the algebra
    element first, or None; with `firsts`, only the pairs whose x lies
    in it."""
    src, tgt = f.source, f.target
    field, source_action, target_action = tgt.field, src.action, tgt.action
    if firsts is not None:
        source_action = {k: v for k, v in source_action.items() if k[:2] in firsts}
        target_action = {k: v for k, v in target_action.items() if k[:2] in firsts}
    return _first_failure(
        "linearity", _through(field, source_action, _by(fcol, 0)),
        _prepended(field, _by(target_action, 1), _coefficients(fcol)),
        (src.algebra.space, src.space), tgt.space, order=lambda key: key)
