"""Line-oriented input language for algebras, morphisms, and problems.

A file declares a field, a degree window, some algebras (free
presentations or explicit basis tables), morphisms between them, and
one problem block.  This is the trust boundary: every explicit algebra
and every morphism is checked against the axioms as it is read, and
every free presentation is materialized by `algebra.materialize_free_cdga`,
which proves its axioms where it builds it and is not walked again.  So a
file that parses is a file whose objects passed the library checks or
hold by construction.  The constructions of the other modules keep the
axioms and do not check their inputs again.

A free presentation equal to an earlier one of the same file up to its
generator names is not materialized again: it gets the earlier algebra
under its own names (`algebra.renamed_presentation`), whose proof reads
none of the names.  The memo lives on the `ProblemFile`, so no two
parses share it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import (AlgebraError, Cdga, CdgaMorphism,
                      materialize_free_cdga, renamed_presentation, same_tables)
from .checks import check_cdga_morphism
from .fields import FieldError, PrimeField, QQ
from .graded import (CochainComplex, DegreeWindow, GradedLinearMap,
                     GradedVectorSpace)
from .linalg import Matrix, scaled
from .pipeline import EmbeddingProblem, PipelineError


# The largest window top a file may declare.  Materializing a free
# presentation and its checks walk every degree of the window, so a
# larger one costs time in proportion to a single number of the file.
MAX_DEGREE = 10000


class ParseError(ValueError):
    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__("line %d: %s" % (lineno, message))


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|->|[{}=:^*+\-;])")


def _tokenize(text, lineno):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if rest:
                raise ParseError(lineno, "unexpected character %r" % rest[0])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Lines:
    """Logical statements: comments stripped, ';' splits within a line."""

    def __init__(self, text):
        self.items = []
        for ln, raw in enumerate(text.splitlines(), 1):
            body = raw.split("#", 1)[0]
            for piece in body.split(";"):
                toks = _tokenize(piece, ln)
                cur = []
                for t in toks:
                    if t == "{":
                        cur.append(t)
                        self.items.append((ln, cur))
                        cur = []
                    elif t == "}":
                        if cur:
                            self.items.append((ln, cur))
                        self.items.append((ln, ["}"]))
                        cur = []
                    else:
                        cur.append(t)
                if cur:
                    self.items.append((ln, cur))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self):
        item = self.peek()
        if item is None:
            raise ParseError(0, "unexpected end of file")
        self.pos += 1
        return item


def _parse_terms(toks, lineno):
    """[(coefficient, [(name, power), ...]), ...]; '0' gives []."""
    if toks == ["0"]:
        return []
    terms = []
    i = 0
    sign = 1
    coeff = None
    factors = []

    def flush():
        nonlocal coeff, factors, sign
        terms.append((Fraction(sign) * (coeff if coeff is not None else 1),
                      factors))
        coeff, factors, sign = None, [], 1

    while i < len(toks):
        t = toks[i]
        if t in ("+", "-"):
            if i + 1 == len(toks) or toks[i + 1] in ("+", "-"):
                raise ParseError(lineno, "sign with no term after it")
            if coeff is not None or factors:
                flush()
            if t == "-":
                sign = -sign
            i += 1
        elif t == "*":
            i += 1
        elif re.fullmatch(r"\d+/\d+|\d+", t):
            if coeff is not None:
                raise ParseError(lineno, "two coefficients in one term")
            try:
                coeff = Fraction(t)
            except ZeroDivisionError:
                raise ParseError(lineno, "zero denominator in %s" % t)
            i += 1
        else:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t):
                raise ParseError(lineno, "unexpected token %r" % t)
            power = 1
            if i + 2 < len(toks) and toks[i + 1] == "^":
                if not re.fullmatch(r"\d+", toks[i + 2]):
                    raise ParseError(lineno, "bad exponent after %s" % t)
                power = int(toks[i + 2])
                i += 2
            factors.append((t, power))
            i += 1
    if coeff is not None or factors:
        flush()
    return terms


def _terms_to_mono_poly(terms, gen_index, gen_degs, lineno, what, hi):
    """Homogeneous polynomial {sorted index tuple: coeff} of parsed terms,
    and its degree (None for the zero polynomial).

    Monomials are collected as exponents, and degrees are read off the
    exponents, so no power is expanded past the window: a polynomial of
    degree above `hi` comes back empty, with its degree.  A monomial takes
    the Koszul sign of sorting its odd factors and vanishes when an odd
    generator occurs twice.
    """
    poly = {}
    for coeff, factors in terms:
        powers, odd = {}, []
        for name, power in factors:
            if name not in gen_index:
                raise ParseError(lineno, "unknown generator %r" % name)
            g = gen_index[name]
            if power:
                powers[g] = powers.get(g, 0) + power
                if gen_degs[g] % 2 == 1:
                    odd.extend([g] * min(power, 2))
        if len(set(odd)) < len(odd):
            continue
        swaps = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
        mono = tuple(sorted(powers.items()))
        poly[mono] = poly.get(mono, Fraction(0)) + (-1) ** swaps * coeff
    poly = {m: c for m, c in poly.items() if c != 0}
    degs = {sum(gen_degs[g] * k for g, k in m) for m in poly}
    if len(degs) > 1:
        raise ParseError(lineno, "%s is not homogeneous" % what)
    deg = degs.pop() if degs else None
    if deg is not None and deg > hi:
        return {}, deg
    return {tuple(g for g, k in m for _ in range(k)): c for m, c in poly.items()}, deg


class ParsedAlgebra:
    def __init__(self, cdga, kind, gen_names=None, gen_degs=None,
                 basis_index=None):
        self.cdga = cdga
        self.kind = kind                       # "free" or "explicit"
        self.gen_names = gen_names or []
        self.gen_degs = gen_degs or []
        self.basis_index = basis_index or {}   # label -> (deg, idx)


class ProblemFile:
    def __init__(self):
        self.field = None
        self.window = None
        self.algebras = {}
        self.morphisms = {}
        self.problem = None        # (ambient_name, n, [(emb_name, mor_name)])
        # free presentation with the names removed -> its checked algebra
        self.presentations = {}

    def embedding_problem(self):
        if self.problem is None:
            raise PipelineError("file declares no problem block")
        ambient, n, branches = self.problem
        return EmbeddingProblem(
            [self.morphisms[m] for _, m in branches], n)


def _expect(toks, lineno, *pattern):
    if len(toks) < len(pattern):
        raise ParseError(lineno, "incomplete statement")
    for i, p in enumerate(pattern):
        if p is None:
            continue
        if toks[i] != p:
            raise ParseError(lineno, "expected %r, found %r" % (p, toks[i]))


def _count(toks, lineno, what):
    """The nonnegative integer toks[3], the `what` of a declaration."""
    if toks[3] == "-":
        raise ParseError(lineno, "%s must be a nonnegative integer, found %s"
                         % (what, "".join(toks[3:])))
    if not re.fullmatch(r"\d+", toks[3]):
        raise ParseError(lineno, "%s must be an integer" % what)
    return int(toks[3])


def _parse_free_cdga(lines, pf):
    gens, diffs, relations = [], {}, []
    body = []
    while True:
        lineno, toks = lines.take()
        if toks == ["}"]:
            break
        body.append((lineno, toks))
    for lineno, toks in body:
        if toks[0] == "generator":
            _expect(toks, lineno, "generator", None, "deg", None)
            if toks[3] == "-":
                raise ParseError(lineno, "generator %s must have positive degree" % toks[1])
            degree = _count(toks, lineno, "degree")
            if any(g == toks[1] for g, _ in gens):
                raise ParseError(lineno, "duplicate generator name %r" % toks[1])
            gens.append((toks[1], degree))
        elif toks[0] == "d":
            _expect(toks, lineno, "d", None, "=")
            diffs[toks[1]] = (lineno, _parse_terms(toks[3:], lineno))
        elif toks[0] == "relation":
            relations.append((lineno, _parse_terms(toks[1:], lineno)))
        else:
            raise ParseError(lineno, "unknown declaration %r in cdga block"
                             % toks[0])
    for g, d in gens:
        if d < 1:   # a degree-0 power has no degree bound
            raise AlgebraError("generator %s must have positive degree" % g)
    gen_index = {g: i for i, (g, _) in enumerate(gens)}
    gen_degs = [d for _, d in gens]
    hi = pf.window.hi
    diff_polys = {}
    for gname, (lineno, terms) in diffs.items():
        if gname not in gen_index:
            raise ParseError(lineno, "d given for unknown generator %r" % gname)
        poly, deg = _terms_to_mono_poly(terms, gen_index, gen_degs, lineno,
                                        "d(%s)" % gname, hi)
        if deg is not None and deg != gen_degs[gen_index[gname]] + 1:
            raise ParseError(lineno, "differential must raise degree by 1")
        diff_polys[gname] = poly
    rel_polys = []
    for lineno, terms in relations:
        poly, _ = _terms_to_mono_poly(terms, gen_index, gen_degs, lineno,
                                      "relation", hi)
        if poly:
            rel_polys.append(poly)
    gen_names = [g for g, _ in gens]
    key = (pf.field, pf.window, tuple(gen_degs),
           tuple(sorted((gen_index[g], frozenset(p.items()))
                        for g, p in diff_polys.items())),
           tuple(frozenset(p.items()) for p in rel_polys))
    first = pf.presentations.get(key)
    if first is not None:
        cdga = renamed_presentation(first, gen_names)
    else:
        cdga = materialize_free_cdga(pf.field, gens, diff_polys, rel_polys,
                                     pf.window)
        pf.presentations[key] = cdga
    return ParsedAlgebra(cdga, "free", gen_names=gen_names,
                         gen_degs=gen_degs)


def _lincomb_to_vec(terms, basis_index, field, lineno, expect_deg=None):
    """(degree, vector) of a linear combination of basis labels."""
    deg = None
    entries = {}
    for coeff, factors in terms:
        if len(factors) != 1 or factors[0][1] != 1:
            raise ParseError(lineno, "expected a linear combination of "
                             "basis labels")
        label = factors[0][0]
        if label not in basis_index:
            raise ParseError(lineno, "unknown basis label %r" % label)
        d, i = basis_index[label]
        if deg is None:
            deg = d
        elif deg != d:
            raise ParseError(lineno, "combination mixes degrees %d and %d"
                             % (deg, d))
        entries[i] = entries.get(i, Fraction(0)) + coeff
    if expect_deg is not None and deg is not None and deg != expect_deg:
        raise ParseError(lineno, "combination has degree %d, expected %d"
                         % (deg, expect_deg))
    if deg is None:
        deg = expect_deg
    vec = {}
    for i, c in entries.items():
        x = field.of(c)
        if x:
            vec[i] = x
    return deg, vec


def _parse_explicit_cdga(lines, pf):
    basis, products, diffs = [], [], []
    while True:
        lineno, toks = lines.take()
        if toks == ["}"]:
            break
        if toks[0] == "basis":
            _expect(toks, lineno, "basis", None, "deg", None)
            basis.append((lineno, toks[1], _count(toks, lineno, "degree")))
        elif toks[0] == "product":
            _expect(toks, lineno, "product", None, None, "=")
            products.append((lineno, toks[1], toks[2],
                             _parse_terms(toks[4:], lineno)))
        elif toks[0] == "d":
            _expect(toks, lineno, "d", None, "=")
            diffs.append((lineno, toks[1], _parse_terms(toks[3:], lineno)))
        else:
            raise ParseError(lineno, "unknown declaration %r in explicit "
                             "cdga block" % toks[0])
    field = pf.field
    dims, labels, index = {}, {}, {}
    for lineno, label, d in basis:
        if label in index:
            raise ParseError(lineno, "duplicate basis label %r" % label)
        if not pf.window.contains(d):
            raise ParseError(lineno, "degree %d outside the window" % d)
        index[label] = (d, dims.get(d, 0))
        dims[d] = dims.get(d, 0) + 1
        labels.setdefault(d, []).append(label)
    space = GradedVectorSpace(field, pf.window, dims, labels)
    dblocks = {}
    for lineno, label, terms in diffs:
        if label not in index:
            raise ParseError(lineno, "d given for unknown basis label %r" % label)
        d, i = index[label]
        # _lincomb_to_vec rejects a combination of any other degree
        _, vec = _lincomb_to_vec(terms, index, field, lineno, expect_deg=d + 1)
        # a later line for the same label replaces the earlier one
        dblocks.setdefault(d, {})[i] = vec
    glm_blocks = {d: Matrix.from_cols(field, [cols.get(i, {})
                                              for i in range(space.dim(d))],
                                      space.dim(d + 1))
                  for d, cols in dblocks.items()}
    cx = CochainComplex(space, GradedLinearMap(space, space, 1, glm_blocks))
    product = {}
    for lineno, l1, l2, terms in products:
        for lab in (l1, l2):
            if lab not in index:
                raise ParseError(lineno, "unknown basis label %r" % lab)
        d1, i1 = index[l1]
        d2, i2 = index[l2]
        _, vec = _lincomb_to_vec(terms, index, field, lineno,
                                 expect_deg=d1 + d2)
        if vec:
            product[(d1, i1, d2, i2)] = vec
    unit = _solve_unit(field, space, product)
    # every index was read off the basis labels, and `validate` checks them
    cdga = Cdga(field, cx, product, unit)
    cdga.validate()
    return ParsedAlgebra(cdga, "explicit", basis_index=index)


def _solve_unit(field, space, product):
    """The two-sided identity of the degree-0 part, from the table."""
    n0 = space.dim(0)
    if n0 == 0:
        raise AlgebraError("explicit algebra has no degree-0 basis")
    rows, rhs = [], {}
    for d in space.degrees():
        for j in range(space.dim(d)):
            # degree-0 elements commute, so either key order works
            vs = [product.get((0, i, d, j)) or product.get((d, j, 0, i)) or {}
                  for i in range(n0)]
            for t in range(space.dim(d)):
                if t == j:
                    rhs[len(rows)] = field.one
                rows.append({i: v[t] for i, v in enumerate(vs) if t in v})
    sol = Matrix.sparse(field, rows, n0).solve(rhs)
    if sol is None:
        raise AlgebraError("product table has no unit")
    return sol


def _poly_to_target_vec(terms, target, lineno):
    """Evaluate a parsed expression in the target algebra; returns
    (degree, vector) or (None, None) for the zero polynomial."""
    field = target.cdga.field
    if target.kind == "explicit":
        if not terms:
            return None, None
        return _lincomb_to_vec(terms, target.basis_index, field, lineno)
    gen_index = {g: i for i, g in enumerate(target.gen_names)}
    poly, deg = _terms_to_mono_poly(terms, gen_index, target.gen_degs, lineno,
                                    "image", target.cdga.space.window.hi)
    if deg is None:
        return None, None
    if deg > target.cdga.space.window.hi:
        raise ParseError(lineno, "image degree %d outside the window" % deg)
    return deg, target.cdga.presentation.normal_form(
        {mono: field.of(coeff) for mono, coeff in poly.items()})


def _parse_morphism(src, tgt, lines, pf):
    entries = []
    while True:
        lineno, toks = lines.take()
        if toks == ["}"]:
            break
        if "->" not in toks:
            raise ParseError(lineno, "expected '<element> -> <expression>'")
        k = toks.index("->")
        if k != 1:
            raise ParseError(lineno, "left side of '->' must be one name")
        entries.append((lineno, toks[0], _parse_terms(toks[2:], lineno)))
    field = pf.field
    source, target = pf.algebras[src], pf.algebras[tgt]
    sa, ta = source.cdga, target.cdga
    images = {}
    for lineno, label, terms in entries:
        deg, vec = _poly_to_target_vec(terms, target, lineno)
        images[label] = (lineno, deg, vec)

    blocks = {d: [{} for _ in range(ta.space.dim(d))] for d in sa.space.degrees()}
    unlisted = []       # labels of the unit components given no image

    def put(d, i, vec):
        for r, c in vec.items():
            blocks[d][r][i] = c

    if source.kind == "explicit":
        for label, (lineno, deg, vec) in images.items():
            if label not in source.basis_index:
                raise ParseError(lineno, "unknown basis label %r" % label)
            d, i = source.basis_index[label]
            if vec is not None:
                if deg != d:
                    raise ParseError(lineno, "image of %s has degree %d, "
                                     "expected %d" % (label, deg, d))
                put(d, i, vec)
        # an unlisted component e_i of the unit sum c_i e_i goes to 1/c_i
        # times the target unit: with one such component, 1 goes to 1
        for i, c in sa.unit.items():
            if sa.space.label(0, i) not in images:
                unlisted.append(sa.space.label(0, i))
                put(0, i, scaled(field, field.div(field.one, c), ta.unit))
    else:
        gen_imgs = {}
        for label, (lineno, deg, vec) in images.items():
            if label not in source.gen_names:
                raise ParseError(lineno, "unknown generator %r" % label)
            g = source.gen_names.index(label)
            if vec is not None and deg != source.gen_degs[g]:
                raise ParseError(lineno, "image of %s has degree %d, expected "
                                 "%d" % (label, deg, source.gen_degs[g]))
            gen_imgs[g] = vec       # None means zero

        def image_of_mono(mono):
            deg, vec = 0, ta.unit
            for g in mono:
                gd = source.gen_degs[g]
                gv = gen_imgs.get(g)
                if gv is None:
                    return None, None
                vec = ta.mul_vec(deg, vec, gd, gv)
                deg += gd
                if not vec:
                    return None, None
            return deg, vec

        for d, monos in sa.presentation.standard.items():
            for i, mono in enumerate(monos):
                deg, vec = image_of_mono(mono)
                if vec is not None:
                    put(d, i, vec)
    glm = GradedLinearMap(sa.space, ta.space, 0,
                          {d: Matrix.sparse(field, rows, sa.space.dim(d))
                           for d, rows in blocks.items()})
    f = CdgaMorphism(sa, ta, glm)
    # a map equal to an earlier one between algebras sharing its ends'
    # tables passes as that one did: the check reads only those
    if any(same_tables(g.source, sa) and same_tables(g.target, ta) and g.map == glm
           for g in pf.morphisms.values()):
        return f
    try:
        f.validate()
    except AlgebraError as e:
        # the witness, read again on the way out, says which law failed
        if unlisted and check_cdga_morphism(f).axiom == "unit preservation":
            raise AlgebraError("%s; unlisted unit components: %s"
                               % (e, ", ".join(unlisted)))
        raise
    return f


def parse(text, field_override=None):
    """Parse and validate a problem file given as a string.

    field_override, when given, replaces the declared coefficient field
    (used for reruns of rational inputs over a prime field)."""
    pf = ProblemFile()
    lines = _Lines(text)
    while lines.peek() is not None:
        lineno, toks = lines.take()
        head = toks[0]
        if head == "field":
            if len(toks) == 2 and toks[1] == "rational":
                pf.field = QQ
            elif len(toks) == 3 and toks[1] == "prime":
                try:
                    pf.field = PrimeField(int(toks[2]))
                except (ValueError, FieldError) as e:
                    raise ParseError(lineno, str(e))
            else:
                raise ParseError(lineno, "expected 'field rational' or "
                                 "'field prime <p>'")
            if field_override is not None:
                pf.field = field_override
        elif head == "window":
            _expect(toks, lineno, "window", None, None)
            if toks[1] == "-":
                raise ParseError(lineno, "window must start at 0")
            if toks[2] == "-":
                raise ParseError(lineno, "window upper bound must be a "
                                 "nonnegative integer, found %s" % "".join(toks[2:]))
            if len(toks) > 3:
                raise ParseError(lineno, "unexpected %r after the window bounds"
                                 % toks[3])
            try:
                pf.window = DegreeWindow(int(toks[1]), int(toks[2]))
            except ValueError:
                raise ParseError(lineno, "window bounds must be integers")
            if pf.window.lo != 0:
                raise ParseError(lineno, "window must start at 0")
            if pf.window.hi > MAX_DEGREE:
                raise ParseError(lineno, "window upper bound %d exceeds the largest "
                                 "degree %d" % (pf.window.hi, MAX_DEGREE))
        elif head == "cdga":
            if pf.field is None or pf.window is None:
                raise ParseError(lineno, "field and window must come first")
            if len(toks) >= 3 and toks[-1] == "{" and toks[-2] == "explicit":
                name = toks[1]
                builder = _parse_explicit_cdga
            elif len(toks) == 3 and toks[-1] == "{":
                name = toks[1]
                builder = _parse_free_cdga
            else:
                raise ParseError(lineno, "expected 'cdga <Name> [explicit] {'")
            if name in pf.algebras:
                raise ParseError(lineno, "duplicate algebra name %r" % name)
            try:
                pf.algebras[name] = builder(lines, pf)
            except (AlgebraError, FieldError) as e:
                raise ParseError(lineno, str(e))
        elif head == "morphism":
            _expect(toks, lineno, "morphism", None, ":", None, "->", None, "{")
            mname, src, tgt = toks[1], toks[3], toks[5]
            for a in (src, tgt):
                if a not in pf.algebras:
                    raise ParseError(lineno, "unknown algebra %r" % a)
            if mname in pf.morphisms:
                raise ParseError(lineno, "duplicate morphism name %r" % mname)
            try:
                pf.morphisms[mname] = _parse_morphism(src, tgt, lines, pf)
            except (AlgebraError, FieldError) as e:
                raise ParseError(lineno, str(e))
        elif head == "problem":
            _expect(toks, lineno, "problem", "{")
            ambient, n, branches = None, None, []
            while True:
                ln2, t2 = lines.take()
                if t2 == ["}"]:
                    break
                if t2[0] == "ambient":
                    _expect(t2, ln2, "ambient", None, "dim", None)
                    if t2[1] not in pf.algebras:
                        raise ParseError(ln2, "unknown algebra %r" % t2[1])
                    ambient, n = t2[1], _count(t2, ln2, "dimension")
                elif t2[0] == "embedded":
                    _expect(t2, ln2, "embedded", None, "via", None)
                    if t2[1] not in pf.algebras:
                        raise ParseError(ln2, "unknown algebra %r" % t2[1])
                    if t2[3] not in pf.morphisms:
                        raise ParseError(ln2, "unknown morphism %r" % t2[3])
                    branches.append((t2[1], t2[3]))
                else:
                    raise ParseError(ln2, "unknown problem declaration %r"
                                     % t2[0])
            if ambient is None:
                raise ParseError(lineno, "problem block needs an ambient line")
            if not branches:
                raise ParseError(lineno, "problem block needs an embedded line")
            for emb, mor in branches:
                phi = pf.morphisms[mor]
                if phi.source is not pf.algebras[ambient].cdga:
                    raise ParseError(lineno, "morphism %r does not start at "
                                     "the ambient algebra" % mor)
                if phi.target is not pf.algebras[emb].cdga:
                    raise ParseError(lineno, "morphism %r does not land in %r"
                                     % (mor, emb))
            pf.problem = (ambient, n, branches)
        else:
            raise ParseError(lineno, "unknown declaration %r" % head)
    if pf.field is None:
        raise ParseError(0, "file declares no field")
    return pf


def parse_file(path, field_override=None):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(data.count(b"\n", 0, e.start) + 1,
                         "not valid UTF-8 (byte 0x%02x)" % data[e.start])
    return parse(text, field_override=field_override)


def emit_explicit(name, cdga):
    """Serialize a CDGA as an explicit presentation block that reparses
    to an equal algebra; labels are normalized to b<deg>_<idx>."""
    sp = cdga.space
    out = ["cdga %s explicit {" % name]
    for d in sp.degrees():
        for i in range(sp.dim(d)):
            out.append("  basis b%d_%d deg %d" % (d, i, d))
    for d in sp.degrees():
        for i, col in enumerate(cdga.complex.d.block(d).transpose().rows):
            if col:
                out.append("  d b%d_%d = %s"
                           % (d, i, _comb_text(col, d + 1)))
    for (d1, i1, d2, i2) in sorted(cdga.product):
        out.append("  product b%d_%d b%d_%d = %s"
                   % (d1, i1, d2, i2,
                      _comb_text(cdga.product[(d1, i1, d2, i2)], d1 + d2)))
    out.append("}")
    return "\n".join(out)


def _comb_text(vec, deg):
    parts = []
    for i, c in sorted(vec.items()):
        if c == 1:
            parts.append("b%d_%d" % (deg, i))
        else:
            parts.append("%s * b%d_%d" % (c, deg, i))
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")
