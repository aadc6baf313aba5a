"""The loops that reduced products of classes one by one, the references
for the tables that `algebra.projected_table` writes and the duality
certificate holds.

`cohomology_algebra` multiplied every pair of representatives and
reduced the product.  `lefschetz` lifted each class of the complement
below the bound n - m - 1 to a cocycle of the ambient algebra, acted
with it on every representative and reduced again.  `gysin_map`
rebuilt the pairing of H(W) from `mul_basis`, entry by entry.  The
functions below are those loops as they were; the tests compare the
library's tables with them.
"""

from dense import mul_basis
from pemb.duality import shifted_dual_morphism
from pemb.graded import cohomology
from pemb.linalg import Matrix, axpy, scaled
from pemb.modules import module_mapping_cone
from pemb.pipeline import analyze


def cohomology_product(a):
    """The product table of the H-algebra of `a`, pair by pair."""
    coh = cohomology(a.complex)
    hi = a.space.window.hi
    product = {}
    for d1 in sorted(coh.dims):
        for d2 in sorted(coh.dims):
            d = d1 + d2
            if d > hi:
                continue
            for i1, z1 in enumerate(coh.reps[d1]):
                for i2, z2 in enumerate(coh.reps[d2]):
                    w = coh.reduce(d, a.mul_vec(d1, z1, d2, z2))
                    if w:
                        product[(d1, i1, d2, i2)] = w
    return product


def lefschetz_product(problem):
    """The product table of H(C) that `lefschetz` determines under the
    unknotting bound, through lifted cocycles of the ambient algebra."""
    report = analyze(problem)
    n, m, field = report.n, report.m, problem.field
    cone_mod, _ = module_mapping_cone(shifted_dual_morphism(problem.phi, n))
    coh_c = cohomology(cone_mod.complex)
    coh_r = cohomology(problem.ambient.complex)
    bound = n - m - 1
    c0 = coh_c.reps[0][0]
    lifts = {}                     # (d, i) -> cocycle of W with class c_{d,i}
    for d in [d for d in coh_r.dims if 0 <= d < bound]:
        cols = [coh_c.reduce(d, cone_mod.act_vec(d, zw, 0, c0))
                for zw in coh_r.reps[d]]
        mtx = Matrix.from_cols(field, cols, coh_c.dim(d))
        assert coh_c.dim(d) == coh_r.dim(d) and mtx.rank() == coh_c.dim(d)
        for i in range(mtx.nrows):
            lifts[(d, i)] = zw = {}
            for c, x in mtx.solve({i: field.one}).items():
                axpy(field, zw, x, coh_r.reps[d][c])
    dims = coh_c.dims
    product = {}
    for d1 in sorted(dims):
        for d2 in sorted(dims):
            t = d1 + d2
            if t not in dims:
                continue
            for i1 in range(dims[d1]):
                for i2 in range(dims[d2]):
                    if d1 < bound:
                        w = coh_c.reduce(t, cone_mod.act_vec(
                            d1, lifts[(d1, i1)], d2, coh_c.reps[d2][i2]))
                    elif d2 < bound:
                        w = product.get((d2, i2, d1, i1))
                        if w is None:
                            continue
                        w = scaled(field, field.sign(d1 * d2), w)
                    else:
                        continue
                    if w:
                        product[(d1, i1, d2, i2)] = w
    return product


def gysin_pairing(hw, cert_w, j):
    """The matrix of <x . w_t, [W]> over x in H^j(W), rows t over
    H^(n-j)(W), as `gysin_map` built it from `mul_basis`."""
    field, n = hw.field, cert_w.n
    fundamental = cert_w.fundamental_class
    i = min(fundamental)

    def top(vec):
        return field.div(vec[i], fundamental[i]) if i in vec else field.zero

    out_dim = hw.space.dim(j)
    return Matrix.sparse(field, [
        {c: x for c in range(out_dim) if (x := top(mul_basis(hw, j, c, n - j, t)))}
        for t in range(hw.space.dim(n - j))], out_dim)
