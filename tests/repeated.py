"""Two constructions as they were before they stopped repeating work,
the references for the library's forms.

`materialize_free_cdga` once merged every ordered pair of standard
monomials, so each unordered pair twice; it now merges each once and
writes the second key by the Koszul sign.  `every_pair_product` below is
the earlier loop, run on a materialized algebra's presentation.

`shifted_dual_morphism` and the top-degree map once dualized all of Q
acting on itself and then restricted the dual along phi; they now
restrict first.  `dualize_then_restrict` is the earlier order.

`semifree_resolution` once took, after each round that added cokernel
generators, one more round in the same degree, which found nothing to
add where the induced map had been injective; a round now closes its
degree there.  `resolution_with_confirming_rounds` is the earlier loop.

`restrict_scalars` once grouped every entry of the module's action by
its algebra element; it now groups only the entries on the elements
that phi's rows name.  `restrict_grouping_every_element` is the earlier
form.
"""

from pemb.algebra import _merge_sign
from pemb.graded import GradedLinearMap, cohomology, degree_cohomology
from pemb.linalg import Matrix, axpy, reduced_kernel, scaled
from pemb.modules import (DgModule, FreeGenerator, _FreeBuilder, algebra_as_module,
                          restrict_scalars, shifted_dual)


def every_pair_product(a):
    """The product table of `a`, materialized from a free presentation,
    as the earlier loop built it: every ordered pair of standard
    monomials merged, in the loop order (d1, d2, i1, i2)."""
    pres, field, space = a.presentation, a.field, a.space
    gen_degs, standard, hi = pres.gen_degs, pres.standard, space.window.hi
    squared = {lm[0] for lm, p in pres.groebner_basis
               if len(p) == 1 and len(lm) == 2 and lm[0] == lm[1]}
    nil = {d: [sum(1 << g for g in m if gen_degs[g] % 2 or g in squared) for m in ms]
           for d, ms in standard.items()}
    product = {}
    for d1 in space.degrees():
        for d2 in space.degrees():
            d = d1 + d2
            if d > hi or space.dim(d) == 0:
                continue
            for i1, m1 in enumerate(standard[d1]):
                nil1 = nil[d1][i1]
                for i2, m2 in enumerate(standard[d2]):
                    if nil1 & nil[d2][i2]:
                        continue
                    s, prod = _merge_sign(field, m1, m2, gen_degs)
                    w = pres.monomial_form(prod)
                    if w:
                        product[(d1, i1, d2, i2)] = (w if s == field.one
                                                     else scaled(field, s, w))
    return product


def resolution_with_confirming_rounds(m, window):
    """(generators, index, P, rho) of the semifree resolution of `m` on
    `window`, each degree ending only at a round that adds nothing: the
    earlier round loop of `semifree_resolution`, without its bounds and
    its checks."""
    a, field = m.algebra, m.field
    fb = _FreeBuilder(a, window)
    rho_cols = {}

    def add(gen, rho_val, dval=None):
        for d, e, ib in fb.add(gen, dval):
            rho_cols.setdefault(d, []).append(
                m.act_vec(e, a.basis_vec(e, ib), gen.degree, rho_val))

    coh_m = cohomology(m.complex)
    for j in range(window.lo, window.hi + 1):
        while fb.dims.get(j) or coh_m.dim(j):
            _, reps, _ = degree_cohomology(field, fb.dims.get(j, 0), fb.d_block(j),
                                           fb.d_block(j - 1))
            rho = Matrix.from_cols(field, rho_cols.get(j, ()), m.space.dim(j))
            img_cols = [coh_m.reduce(j, rho.apply(z)) for z in reps]
            n_img, hm_dim = len(img_cols), coh_m.dim(j)
            eye = [{t: field.one} for t in range(hm_dim)]
            red, pivots = Matrix.from_cols(field, img_cols + eye, hm_dim).rref()
            missing = [p - n_img for p in pivots if p >= n_img]
            for t in missing:
                add(FreeGenerator("v%d_%d" % (j, len(fb.gens)), j), coh_m.reps[j][t])
            if missing:
                continue
            kern = reduced_kernel(red, pivots, n_img)
            if not kern:
                break
            for v in kern:
                z = {}
                for t, c in v.items():
                    axpy(field, z, c, reps[t])
                add(FreeGenerator("u%d_%d" % (j, len(fb.gens)), j - 1),
                    coh_m.write_coboundary(j, rho.apply(z)), z)
    P, index = fb.assemble()
    rho = GradedLinearMap(P.space, m.space, 0,
                          {d: Matrix.from_cols(field, cols, m.space.dim(d))
                           for d, cols in rho_cols.items()})
    return fb.gens, index, P, rho


def dualize_then_restrict(phi, n):
    """s^(-n) # Q over R for phi: R -> Q, dualizing all of Q acting on
    itself before restricting along phi."""
    return restrict_scalars(shifted_dual(algebra_as_module(phi.target), n), phi)


def restrict_grouping_every_element(m, phi):
    """`restrict_scalars(m, phi)` with every entry of m's action grouped
    by its algebra element first."""
    by_element = {}
    for (db, ib, dm, jm), v in m.action.items():
        by_element.setdefault((db, ib), []).append((dm, jm, v))
    action = {}
    for da, block in phi.map.blocks.items():
        for ib, row in enumerate(block.rows):
            for ia, c in row.items():
                for dm, jm, v in by_element.get((da, ib), ()):
                    axpy(m.field, action.setdefault((da, ia, dm, jm), {}), c, v)
    return DgModule(phi.source, m.complex, {k: v for k, v in action.items() if v})
