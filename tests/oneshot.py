"""The one-shot free module, the reference for the free modules that
`modules` grows in place.

`free_module` once built A x V on all its generators at once: every
degree of the window over all generators for the basis, every product
of the algebra over all generators for the action, then every column of
d.  The resolutions rebuilt it that way after each round.  The library
now appends one generator at a time, in `modules._FreeBuilder`, and
builds no free module on a given list of generators: the tests do, with
`builders.free_module` on that builder.  `free_module` below is the
earlier builder as it was, and `one_shot_rho` builds rho's columns the
way each rebuild did, so the tests compare a grown resolution with both.
"""

from pemb.graded import CochainComplex, GradedLinearMap, GradedVectorSpace
from pemb.linalg import Matrix, axpy
from pemb.modules import DgModule


def free_module(algebra, gens, dvals=None, window=None):
    """(module, basis index table) of the free module on gens, with
    d(g) = dvals[g] in module coordinates."""
    a = algebra
    field = a.field
    if window is None:
        window = a.space.window
    index = {}      # (g, da, ia) -> (deg, pos)
    slots = {}      # (deg, pos) -> (g, da, ia)
    dims, labels = {}, {}
    for d in range(window.lo, window.hi + 1):
        pos = 0
        labs = []
        for gi, g in enumerate(gens):
            e = d - g.degree
            for ia in range(a.space.dim(e)):
                index[(gi, e, ia)] = (d, pos)
                slots[(d, pos)] = (gi, e, ia)
                lab = g.label if e == 0 and a.space.label(e, ia) == "1" \
                    else "%s*%s" % (a.space.label(e, ia), g.label)
                labs.append(lab)
                pos += 1
        if pos:
            dims[d] = pos
            labels[d] = labs
    space = GradedVectorSpace(field, window, dims, labels)

    # a . (b x g) = (a b) x g, over the nonzero products in both orders
    action = {}
    for (da, ia, e, ib), v in a.both_orders.items():
        for gi, g in enumerate(gens):
            if (gi, e, ib) not in index or da + e + g.degree > window.hi:
                continue
            dm, jm = index[(gi, e, ib)]
            action[(da, ia, dm, jm)] = {index[(gi, da + e, ic)][1]: c
                                        for ic, c in v.items()}

    dvals = dvals or {}
    dblocks = {}

    # d(a x g) = d(a) x g + (-1)^|a| a . d(g); compute columns directly
    def d_col(dm, jm):
        gi, e, ib = slots[(dm, jm)]
        out = {index[(gi, e + 1, ic)][1]: c
               for ic, c in a.d_vec(e, a.basis_vec(e, ib)).items()
               if (gi, e + 1, ic) in index}
        dg = dvals.get(gi)
        if dg is not None:
            # a . dg with the action above; a missing entry is a zero product
            sgn = field.sign(e)
            gdeg = gens[gi].degree
            for jt, c in dg.items():
                axpy(field, out, sgn * c, action.get((e, ib, gdeg + 1, jt), {}))
        return out

    for dm in sorted(dims):
        if dm + 1 > window.hi:
            continue
        cols = [d_col(dm, jm) for jm in range(dims[dm])]
        dblocks[dm] = Matrix.from_cols(field, cols, space.dim(dm + 1))
    cx = CochainComplex(space, GradedLinearMap(space, space, 1, dblocks))
    module = DgModule(a, cx, action)
    return module, index


def one_shot_rho(P, index, gens, rho_vals, m):
    """rho: P -> m with rho(g) = rho_vals[g], column by column over every
    slot a x g of P, as each rebuild of a resolution computed it."""
    a, field = m.algebra, m.field
    slots = {v: k for k, v in index.items()}
    blocks = {}
    for d in P.space.degrees():
        cols = []
        for jm in range(P.space.dim(d)):
            gi, e, ib = slots[(d, jm)]
            cols.append(m.act_vec(e, a.basis_vec(e, ib), gens[gi].degree, rho_vals[gi]))
        blocks[d] = Matrix.from_cols(field, cols, m.space.dim(d))
    return GradedLinearMap(P.space, m.space, 0, blocks)
