import random
import sys
import time

import pytest

import oneshot
from builders import (complex_projective, free_module, product_s2_s4, random_semifree,
                      record_cohomology_constructions, run_cli, sphere, sullivan_cp2,
                      torus_s1_s7, wedge_s2_s4)
from dense import (DenseCdga, DenseModule, DenseMorphism, add_maps, dense_table,
                   is_zero_vec, top_degree)
from pemb import cli, modules, pipeline
from pemb.algebra import Cdga, CdgaMorphism, materialize_free_cdga
from pemb.cones import semi_trivial_cone
from pemb.fields import QQ, PrimeField
from pemb.graded import (DegreeWindow, GradedLinearMap, cohomology, dualize,
                         mapping_cone)
from pemb.linalg import Matrix
from pemb.parser import parse
from homotopy import HomComplex, homotopy_classes
from pemb.modules import (DgModule, DgModuleMorphism, FreeGenerator, ModuleError,
                          algebra_as_module, direct_sum_modules, dual_module,
                          homotopy_between, module_mapping_cone,
                          restrict_scalars, semifree_resolution, shifted_dual,
                          solve_chain_maps, suspend_module)


def s2(hi=7):
    return sphere(2, hi=hi)


def test_algebra_as_module_validates():
    a = s2()
    m = algebra_as_module(a)
    m.validate()
    assert m.space.dims == {0: 1, 2: 1}
    # u . u = 0 (u^2 relation)
    assert m.act_basis(2, 0, 2, 0) == {}


def test_dg_module_rejects_keys_and_indices_outside_the_basis():
    m = algebra_as_module(s2())                    # basis 1, u on the window 0..7
    for bad in ({(2, 1, 0, 0): {0: QQ.one}},      # no second algebra element u
                {(0, 0, 2, 1): {0: QQ.one}},      # no second module element
                {(2, 0, 0, 0): {1: QQ.one}},      # no second index in degree 2
                {(2, 0, 2, 0): {0: QQ.one}}):     # degree 4 is empty
        # taken as it is, and named by `validate` before any axiom
        bad_module = DgModule(m.algebra, m.complex, {**m.action, **bad})
        assert bad_module.action == {**m.action, **bad}
        with pytest.raises(ModuleError, match=r"action \(\d,\d\) on \(\d,\d\) "
                           "names no basis element"):
            bad_module.validate()


def test_dual_of_sphere_is_shift_of_itself():
    a = sphere(6)
    m = algebra_as_module(a)
    dm = dual_module(m)
    assert dm.space.dims == {-6: 1, 0: 1}
    # e6 . (e6)* = 1*, so the dual is free on the top dual class
    assert dm.act_basis(6, 0, -6, 0) == {0: QQ.one}
    shifted = suspend_module(m, 6)
    hc = homotopy_classes(shifted, dm)
    assert hc.dimension == 1
    hc.representatives[0].validate()   # homotopy_classes does not check them
    f = hc.representatives[0].map
    assert f.block(-6).rank() == 1 and f.block(0).rank() == 1


def test_shifted_dual_dims():
    q = s2()
    d = shifted_dual(algebra_as_module(q), 6)
    assert d.space.dims == {4: 1, 6: 1}
    # u . v4 = +- v6: the action stays full under the shift
    assert d.act_basis(2, 0, 4, 0) in ({0: QQ.one}, {0: QQ.of(-1)})


def test_hom_complex_endomorphisms_of_sphere():
    a = sphere(6)
    m = algebra_as_module(a)
    hc = HomComplex(m, m)
    # only scalars: a linear endomorphism fixing the unit line
    assert hc.complex.space.dim(0) == 1
    assert homotopy_classes(m, m).dimension == 1


def sphere_morphism(n, k, hi):
    """The restriction H^*(S^n) -> H^*(S^k) killing the top class."""
    r = sphere(n, hi=hi)
    q = sphere(k, hi=hi)
    glm = GradedLinearMap(r.space, q.space, 0,
                          {0: Matrix.identity(QQ, 1)})
    return CdgaMorphism(r, q, glm)


def test_restrict_scalars_trivializes_action():
    phi = sphere_morphism(6, 2, 7)
    d = shifted_dual(algebra_as_module(phi.target), 6)
    dr = restrict_scalars(d, phi)
    assert dr.space.dims == {4: 1, 6: 1}
    assert dr.act_basis(6, 0, 4, 0) == {}  # e6 acts through phi(e6) = 0


def test_tables_are_shared_not_copied():
    """The constructors take their tables as they are: a CDGA acting on
    itself holds the algebra's own table."""
    a = s2()
    assert Cdga(a.field, a.complex, a.product, a.unit).product is a.product
    assert algebra_as_module(a).action is a.both_orders


def test_restriction_drops_entries_that_cancel():
    """phi(a) = x - y with x.x = y.x: a.x = 0 cancels, and no {} entry
    is stored."""
    pf = parse("""field rational
window 0 4
cdga R { generator a deg 2 }
cdga Q explicit {
  basis one deg 0 ; basis x deg 2 ; basis y deg 2 ; basis z deg 4
  product one one = one ; product one x = x ; product x one = x
  product one y = y ; product y one = y ; product one z = z ; product z one = z
  product x x = z ; product x y = z ; product y x = z ; product y y = z
}
morphism f : R -> Q { a -> x - y }
""")
    phi = pf.morphisms["f"]
    r = restrict_scalars(algebra_as_module(phi.target), phi)
    assert all(r.action.values())
    # a.x and a.y cancel; a.1 = x - y does not
    assert r.act_basis(2, 0, 2, 0) == r.act_basis(2, 0, 2, 1) == {}
    assert r.act_basis(2, 0, 0, 0) == {0: QQ.one, 1: -QQ.one}
    r.validate()


def test_solve_top_degree_map_s2_in_s6():
    phi = sphere_morphism(6, 2, 7)
    r_mod = algebra_as_module(phi.source)
    d = restrict_scalars(shifted_dual(algebra_as_module(phi.target), 6), phi)
    coh_r = cohomology(phi.source.complex)
    target_class = coh_r.reduce(6, phi.source.basis_vec(6, 0))
    sol = solve_chain_maps(
        d, r_mod,
        [("class", 6, {0: QQ.one}, phi.source.basis_vec(6, 0))])
    assert sol is not None
    psi, kernel = sol
    psi.validate()
    assert psi.map.apply(6, {0: QQ.one}) == {0: QQ.one}
    assert psi.map.block(4).is_zero()  # R^4 = 0 forces psi(v4) = 0
    assert kernel == []
    assert target_class == {0: QQ.one}


def test_homotopy_between_self_and_distinct():
    a = s2(hi=3)
    m = algebra_as_module(a)
    ident = DgModuleMorphism(m, m, GradedLinearMap.identity(m.space))
    zero = DgModuleMorphism(m, m, GradedLinearMap.zero_map(m.space, m.space, 0))
    assert homotopy_between(ident, ident) is not None
    assert homotopy_between(ident, zero) is None  # id is not null-homotopic


def test_semifree_resolution_of_free_module_is_trivial():
    a = s2()
    m = algebra_as_module(a)
    res = semifree_resolution(m)
    assert len(res.generators) == 1
    assert res.generators[0].degree == 0


def test_semifree_resolution_of_shifted_dual():
    q = s2(hi=10)
    d = shifted_dual(algebra_as_module(q), 9)
    # dims {7:1, 9:1} with the action joining them: free on one degree-7 class
    assert d.space.dims == {7: 1, 9: 1}
    res = semifree_resolution(d)
    assert [g.degree for g in res.generators] == [7]
    assert res.module.space.dims == {7: 1, 9: 1}


def test_semifree_resolution_needs_kernel_generators():
    # target: the unit line only; the resolution must kill H^2 of A x g0
    a = s2(hi=5)
    unit_mod, _ = free_module(a, [FreeGenerator("g", 0)], {},
                              DegreeWindow(0, 0))
    res = semifree_resolution(unit_mod, window=DegreeWindow(0, 5))
    res.module.validate()
    degs = sorted(g.degree for g in res.generators)
    # Koszul-Tate style ladder killing u, then the artifacts it creates
    assert degs == [0, 1, 2, 3, 4]
    coh = cohomology(res.module.complex)
    assert coh.dims == {0: 1}


def test_semifree_resolution_builds_each_slot_once(monkeypatch):
    """The free module grows in place: each slot of P, and rho's column
    at it, is built once, so the target's `act_vec` runs once per slot of
    the final P.  Each round reads H(P) and rho in its own degree alone,
    so P is assembled once, after the last round, and H(P) is built once,
    on it."""
    assembled, acts, rounds = [], [], set()
    assemble, add, act_vec = (modules._FreeBuilder.assemble, modules._FreeBuilder.add,
                              DgModule.act_vec)

    def recorded_assemble(self):
        assembled.append(len(self.gens))
        return assemble(self)

    def recorded_add(self, *args):
        # (degree, round) of the resolution's loop that added the generator
        loop = sys._getframe(2).f_locals
        rounds.add((loop["j"], loop["round_"]))
        return add(self, *args)

    def counted_act_vec(self, *args):
        acts.append(self)
        return act_vec(self, *args)

    unit_mod, _ = free_module(s2(hi=5), [FreeGenerator("g", 0)], {}, DegreeWindow(0, 0))
    cases = [(unit_mod, DegreeWindow(0, 5)),
             (shifted_dual(algebra_as_module(product_s2_s4()), 7), None),
             (algebra_as_module(sullivan_cp2()), None)]
    monkeypatch.setattr(modules._FreeBuilder, "assemble", recorded_assemble)
    monkeypatch.setattr(modules._FreeBuilder, "add", recorded_add)
    monkeypatch.setattr(DgModule, "act_vec", counted_act_vec)
    built = record_cohomology_constructions(monkeypatch)
    for m, window in cases:
        for seen in (assembled, acts, rounds, built):
            seen.clear()
        res = semifree_resolution(m, window=window)
        assert rounds
        assert assembled == [len(res.generators)]
        assert len(acts) == res.module.space.total_dim()
        assert all(x is m for x in acts)
        # H(m), then H(P) once
        assert len(built) == 2
        assert built[0] is m.complex and built[1] is res.module.complex


def every_resolution(monkeypatch, field):
    """[(m, resolution of m)] of every resolution that `complement`,
    `punctured-square`, `dgmodule-square` and `stable-square` build on a
    shipped example over `field`, then of the ground field over S^2,
    CP^2 and the Sullivan model of CP^2, whose kernel-killing generators
    have d != 0; the shipped examples' generators have d = 0."""
    resolved = []
    resolve = modules.semifree_resolution

    def recorded_resolution(m, *args, **kwargs):
        res = resolve(m, *args, **kwargs)
        resolved.append((m, res))
        return res

    for namespace in (modules, pipeline):
        monkeypatch.setattr(namespace, "semifree_resolution", recorded_resolution)
    for name in sorted(cli.EXAMPLES):
        problem = cli.parse_file(str(cli.example_path(name)),
                                 field_override=field).embedding_problem()
        for run in (pipeline.complement_model, pipeline.dgmodule_square,
                    pipeline.stable_square,
                    lambda p: pipeline.punctured_square(p, True)):
            try:
                run(problem)
            except (pipeline.HypothesisError, pipeline.PipelineError):
                pass
    assert len(resolved) >= 20
    for a in (sphere(2, hi=7, field=field), complex_projective(2, hi=9, field=field),
              sullivan_cp2(field=field)):
        ground, _ = free_module(a, [FreeGenerator("g", 0)], {}, DegreeWindow(0, 0))
        recorded_resolution(ground, window=a.space.window)
    assert sum(len(res.module.complex.d.blocks) for _, res in resolved[-3:]) > 10
    return resolved


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "F10007"])
def test_grown_resolutions_match_the_one_shot_free_module(monkeypatch, field):
    """Every resolution of `every_resolution`, over Q and over F_10007,
    is the one-shot free module on the same generators, differentials and
    window, with rho built over all its slots: same index, labels,
    action table, d blocks and rho blocks."""
    grown = {}      # id of a builder's index -> (builder, [(gen, d(gen), rho(gen))])
    add = modules._FreeBuilder.add

    def recorded_add(self, gen, dval=None):
        rho_val = sys._getframe(1).f_locals.get("rho_val")
        grown.setdefault(id(self.index), (self, []))[1].append((gen, dval, rho_val))
        return add(self, gen, dval)

    monkeypatch.setattr(modules._FreeBuilder, "add", recorded_add)
    for m, res in every_resolution(monkeypatch, field):
        builder, adds = grown[id(res.index)]
        gens = [g for g, _, _ in adds]
        assert gens == res.generators
        dvals = {gi: z for gi, (_, z, _) in enumerate(adds) if z is not None}
        ref, index = oneshot.free_module(m.algebra, gens, dvals, builder.window)
        P = res.module
        assert res.index == index
        assert P.space.labels == ref.space.labels
        assert P.action == ref.action
        assert P.complex.d.blocks == ref.complex.d.blocks
        rho = oneshot.one_shot_rho(ref, index, gens, [r for _, _, r in adds], m)
        assert res.rho.map.blocks == rho.blocks


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "F10007"])
def test_each_round_reads_the_cohomology_of_the_p_it_has(monkeypatch, field):
    """Each round of every resolution of `every_resolution` computes H^j
    of the P grown so far from the two blocks of d at j alone: its
    cocycles are the kernel of P's block out of degree j, and its classes
    and decomposition are those that `cohomology` of P, assembled at that
    round, holds in degree j.  A round where P^j and H^j(m) are both zero
    stops before it, so 128 rounds read H^j."""
    rounds = []
    step = modules.degree_cohomology

    def checked_step(*args):
        got = step(*args)
        loop = sys._getframe(1).f_locals
        j, (P, _) = loop["j"], loop["fb"].assemble()
        coh = cohomology(P.complex)
        assert got == (P.complex.d.block(j).kernel_basis(), coh.reps.get(j, []),
                       coh._decomp.get(j))
        rounds.append((j, len(got[1])))
        return got

    monkeypatch.setattr(modules, "degree_cohomology", checked_step)
    every_resolution(monkeypatch, field)
    assert len(rounds) == 128
    assert sum(1 for _, k in rounds if k) >= 50


def exterior_in_s6():
    """s^(-6) # H^*(T^2) over H^*(S^6), on which e6 acts as 0: its H^5 is
    a plane, so one cokernel step adds two generators."""
    r = sphere(6, hi=7)
    q = materialize_free_cdga(QQ, [("a", 1), ("b", 1)], {}, [], DegreeWindow(0, 7))
    phi = CdgaMorphism(r, q, GradedLinearMap(r.space, q.space, 0,
                                             {0: Matrix.identity(QQ, 1)}))
    return restrict_scalars(shifted_dual(algebra_as_module(q), 6), phi)


def test_semifree_cokernel_step_eliminates_once_per_round(monkeypatch):
    calls = {"rref": 0, "rank": 0, "kernel_basis": 0, "solve": 0}
    per_round = {}   # (degree, round) of semifree_resolution -> eliminations it made

    def counted(name, fn):
        def wrapper(self, *args):
            calls[name] += 1
            caller = sys._getframe(1)
            if caller.f_code.co_name == "semifree_resolution":
                key = caller.f_locals["j"], caller.f_locals["round_"]
                per_round[key] = per_round.get(key, 0) + 1
            return fn(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Matrix, name, counted(name, getattr(Matrix, name)))
    # rref calls when the cokernel step compared two ranks per class
    for m, window, rank_pairs_rrefs in ((algebra_as_module(sullivan_cp2()), None, 38),
                                        (exterior_in_s6(), DegreeWindow(0, 7), 40)):
        calls.update(dict.fromkeys(calls, 0))
        per_round.clear()
        res = semifree_resolution(m, window=window)
        seen = dict(calls)
        # the closing round of a degree reads the kernel off the round's
        # one rref of (image columns | I) instead of eliminating again
        assert per_round and set(per_round.values()) == {1}, per_round
        # rank is left to the closing quasi-isomorphism test, one call per
        # degree of H(P) or H(m)
        degrees = set(cohomology(res.module.complex).dims) | set(cohomology(m.complex).dims)
        assert seen["rank"] == len(degrees)
        assert seen["rref"] < rank_pairs_rrefs


def test_semifree_resolution_generators_and_rho_are_unchanged():
    """Generators and rho as the cokernel step with two rank calls per
    class chose them: the greedy choice is the same."""
    one = Matrix.identity(QQ, 1)
    unit_mod, _ = free_module(s2(hi=5), [FreeGenerator("g", 0)], {}, DegreeWindow(0, 0))
    cases = [
        (unit_mod, DegreeWindow(0, 5),
         [("v0_0", 0), ("u2_1", 1), ("u3_2", 2), ("u4_3", 3), ("u5_4", 4)], {0: one}),
        (algebra_as_module(sullivan_cp2()), None, [("v0_0", 0)],
         {d: one for d in (0, 2, 4, 5, 6, 7, 8)}),
        (shifted_dual(algebra_as_module(torus_s1_s7(hi=9)), 8), None, [("v0_0", 0)],
         {0: one, 1: one.scale(-1), 7: one, 8: one}),
        (exterior_in_s6(), DegreeWindow(0, 7),
         [("v4_0", 4), ("v5_1", 5), ("v5_2", 5), ("v6_3", 6)],
         {4: one, 5: Matrix.identity(QQ, 2), 6: one}),
    ]
    for m, window, gens, rho in cases:
        res = semifree_resolution(m, window=window)
        res.module.validate()
        assert [(g.label, g.degree) for g in res.generators] == gens
        assert res.rho.map.blocks == rho


# a point in the torus T^2 and in T^4: each kernel generator u of the
# top degree adds a.u and b.u as new cocycles, so the resolution never
# stabilizes
POINT_IN_TORUS = """field rational
window 0 %d
cdga R { %s }
cdga Q explicit { basis q deg 0 ; product q q = q }
morphism f : R -> Q { }
problem { ambient R dim %d ; embedded Q via f }
"""


def point_in_torus(k):
    gens = " ; ".join("generator a%d deg 1" % i for i in range(k))
    return POINT_IN_TORUS % (k + 1, gens, k)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("command", ["complement", "dgmodule-square"])
def test_a_resolution_that_never_stabilizes_stops(tmp_path, command, k):
    """The generators added in one degree are bounded: the run exits 2,
    naming the degree, in well under a second."""
    path = tmp_path / "t.pemb"
    path.write_text(point_in_torus(k))
    start = time.perf_counter()
    code, out, err = run_cli([command, str(path)])
    assert time.perf_counter() - start < 10
    assert (code, err) == (2, "error: semifree resolution did not stabilize "
                              "in degree %d\n" % (k + 1))


def test_a_resolution_stops_after_its_rounds(monkeypatch, tmp_path):
    """With three rounds allowed, the same error comes from the round
    bound, long before the generator bound: 15 generators in all."""
    added = []
    add = modules._FreeBuilder.add
    monkeypatch.setattr(modules._FreeBuilder, "add",
                        lambda self, *args: added.append(1) or add(self, *args))
    monkeypatch.setattr(modules, "MAX_ROUNDS", 3)
    path = tmp_path / "t.pemb"
    path.write_text(point_in_torus(2))
    assert run_cli(["complement", str(path)])[:2] == (2, "")
    assert len(added) == 15


def test_module_mapping_cone():
    a = s2(hi=5)
    x, _ = free_module(a, [FreeGenerator("g", 2)], {}, DegreeWindow(0, 5))
    y = algebra_as_module(a)
    # g goes to a cocycle of the class of x in H^2(S^2)
    sol = solve_chain_maps(x, y, [("class", 2, {0: QQ.one}, {0: QQ.one})])
    assert sol is not None
    f, _ = sol
    f.validate()
    cone, split = module_mapping_cone(f)
    cone.validate()
    assert cohomology(cone.complex).dims == {0: 1, 3: 1}


def test_direct_sum_modules():
    a = s2()
    m = algebra_as_module(a)
    s, offsets = direct_sum_modules([m, suspend_module(m, -2)])
    assert s.space.dims == {0: 1, 2: 2, 4: 1}
    s.validate()
    assert offsets[(1, 2)] == 1


def test_random_semifree_and_solvers():
    rng = random.Random(20240817)
    a = s2(hi=6)
    n = algebra_as_module(a)
    for _ in range(6):
        p = random_semifree(a, rng, 2, 3, DegreeWindow(0, 6))
        sol = solve_chain_maps(p, n)
        assert sol is not None
        psi, kernel = sol
        for g in [psi] + kernel:
            g.validate()
        for g in kernel[:3]:
            assert homotopy_between(g, g) is not None


def test_hom_complex_differential_squares_to_zero():
    a = s2(hi=6)
    p, _ = free_module(a, [FreeGenerator("g", 1)], {}, DegreeWindow(0, 6))
    hc = HomComplex(p, algebra_as_module(a))
    # CochainComplex already asserts d*d = 0; check a delta value explicitly
    coh = cohomology(hc.complex)
    assert all(v >= 0 for v in coh.dims.values())


# -- differential test: table-reading builders against the dense loops ------
#
# The five dense builders below recompute every entry of a derived table
# from two basis vectors, on the dense views of `dense`.  They are the
# reference for `free_module`, `restrict_scalars`, `dual_module`,
# `module_mapping_cone` and the cone product, which read the same tables
# off the nonzero entries of the tables they come from; the tests compare
# the tables with dense values.


def dense_free_action(a, m, index):
    a = DenseCdga(a)
    slots = {v: k for k, v in index.items()}
    sp = m.space
    action = {}
    for da in a.space.degrees():
        for dm in sp.degrees():
            if da + dm > sp.window.hi or sp.dim(da + dm) == 0:
                continue
            for ia in range(a.space.dim(da)):
                for jm in range(sp.dim(dm)):
                    out = [a.field.zero] * sp.dim(da + dm)
                    gi, e, ib = slots[(dm, jm)]
                    for ic, c in enumerate(a.mul_basis(da, ia, e, ib)):
                        if c != 0 and (gi, da + e, ic) in index:
                            _, p = index[(gi, da + e, ic)]
                            out[p] = out[p] + c
                    if not is_zero_vec(out):
                        action[(da, ia, dm, jm)] = tuple(out)
    return action


def dense_restricted_action(m, phi):
    m, phi = DenseModule(m), DenseMorphism(phi, DenseCdga)
    a = phi.source
    action = {}
    sp = m.space
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            img = phi.apply(da, a.basis_vec(da, ia))
            if is_zero_vec(img):
                continue
            for dm in sp.degrees():
                if da + dm > sp.window.hi or sp.dim(da + dm) == 0:
                    continue
                for jm in range(sp.dim(dm)):
                    v = m.act_vec(da, img, dm, m.basis_vec(dm, jm))
                    if not is_zero_vec(v):
                        action[(da, ia, dm, jm)] = v
    return action


def dense_dual_action(m):
    m = DenseModule(m)
    cx = dualize(m.complex)
    sp = m.space
    field = m.field
    a = m.algebra
    action = {}
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            av = a.basis_vec(da, ia)
            for j in cx.space.degrees():
                src_deg = -j
                out_deg = -j - da
                if cx.space.dim(j + da) == 0 or sp.dim(src_deg) == 0:
                    continue
                sgn = field.sign(da * (da + j))
                for b in range(sp.dim(src_deg)):
                    out = [field.zero] * sp.dim(out_deg)
                    for c in range(sp.dim(out_deg)):
                        w = m.act_vec(da, av, out_deg, m.basis_vec(out_deg, c))
                        out[c] = sgn * w[b]
                    if not is_zero_vec(tuple(out)):
                        action[(da, ia, j, b)] = tuple(out)
    return action


def dense_cone_action(f):
    f = DenseMorphism(f, DenseModule)
    cone = mapping_cone(f.map, f.source.complex, f.target.complex)
    X, Y = f.source, f.target
    a = Y.algebra
    field = Y.field
    csp = cone.complex.space
    action = {}
    for da in a.space.degrees():
        sgn = field.sign(da)
        for ia in range(a.space.dim(da)):
            av = a.basis_vec(da, ia)
            for dm in csp.degrees():
                t = da + dm
                if csp.dim(t) == 0:
                    continue
                ny, ny_t = cone.y_dim(dm), cone.y_dim(t)
                for jm in range(csp.dim(dm)):
                    out = [field.zero] * csp.dim(t)
                    if jm < ny:
                        w = Y.act_vec(da, av, dm, Y.basis_vec(dm, jm))
                        for c, val in enumerate(w):
                            out[c] = val
                    else:
                        w = X.act_vec(da, av, dm + 1,
                                      X.basis_vec(dm + 1, jm - ny))
                        for c, val in enumerate(w):
                            out[ny_t + c] = sgn * val
                    if not is_zero_vec(tuple(out)):
                        action[(da, ia, dm, jm)] = tuple(out)
    return action


def dense_cone_product(cone, f):
    R, X, split = DenseCdga(cone.base), DenseModule(f.source), cone.split
    field = cone.field
    sp = cone.space
    product = {}
    for d1 in sp.degrees():
        ny1 = split.y_dim(d1)
        for d2 in sp.degrees():
            d = d1 + d2
            if d > sp.window.hi or sp.dim(d) == 0:
                continue
            ny2 = split.y_dim(d2)
            ny_out = split.y_dim(d)
            for i1 in range(sp.dim(d1)):
                for i2 in range(sp.dim(d2)):
                    out = [field.zero] * sp.dim(d)
                    if i1 < ny1 and i2 < ny2:
                        w = R.mul_basis(d1, i1, d2, i2)
                        for c, val in enumerate(w):
                            out[c] = val
                    elif i1 < ny1:
                        sgn = field.sign(d1)
                        w = X.act_vec(d1, R.basis_vec(d1, i1), d2 + 1,
                                      X.basis_vec(d2 + 1, i2 - ny2))
                        for c, val in enumerate(w):
                            out[ny_out + c] = sgn * val
                    elif i2 < ny2:
                        sgn = field.sign((d1 + 1) * d2)
                        w = X.act_vec(d2, R.basis_vec(d2, i2), d1 + 1,
                                      X.basis_vec(d1 + 1, i1 - ny1))
                        for c, val in enumerate(w):
                            out[ny_out + c] = sgn * val
                    if not is_zero_vec(out):
                        product[(d1, i1, d2, i2)] = tuple(out)
    return product


def degree_scaling(a, lam):
    """The automorphism multiplying degree d by lam^d; a CDGA morphism
    when the differential is zero."""
    blocks = {d: Matrix.identity(a.field, a.space.dim(d)).scale(a.field.of(lam ** d))
              for d in a.space.degrees()}
    return CdgaMorphism(a, a, GradedLinearMap(a.space, a.space, 0, blocks))


def algebra_samples():
    for field in (QQ, PrimeField(5)):
        yield from (sphere(2, field=field), sphere(3, hi=7, field=field),
                    complex_projective(2, field=field), wedge_s2_s4(field=field),
                    product_s2_s4(field=field), torus_s1_s7(hi=9, field=field),
                    sullivan_cp2(field=field))


def module_samples(a, rng):
    top = top_degree(a)
    yield algebra_as_module(a)
    yield shifted_dual(algebra_as_module(a), top)
    for _ in range(2):
        yield random_semifree(a, rng, 3, 3)


def one_sided(a):
    """The same algebra with each product listed in one order only."""
    product = {k: v for k, v in a.product.items() if k[:2] <= k[2:]}
    return Cdga(a.field, a.complex, product, a.unit)


def test_free_action_matches_dense_builder():
    seen = 0
    for a in [b for a in algebra_samples() for b in (a, one_sided(a))]:
        top = top_degree(a)
        gen_sets = ([FreeGenerator("g", 0)],
                    [FreeGenerator("g", 1), FreeGenerator("h", 3)],
                    [FreeGenerator("g", 2), FreeGenerator("h", 2),
                     FreeGenerator("k", top)])
        for gens in gen_sets:
            for window in (a.space.window, DegreeWindow(0, top + 2),
                           DegreeWindow(1, top - 1)):
                m, index = free_module(a, gens, {}, window)
                assert dense_table(m.action, m.space) == dense_free_action(a, m, index)
                seen += len(m.action)
    assert seen > 1000, seen


def test_derived_tables_match_dense_builders():
    rng = random.Random(20261018)
    seen = {"restrict": 0, "cone": 0}
    for a in algebra_samples():
        morphisms = [CdgaMorphism(a, a, GradedLinearMap.identity(a.space))]
        if a.complex.d.is_zero():
            morphisms.append(degree_scaling(a, 2))
        target = algebra_as_module(a)
        for m in module_samples(a, rng):
            dual = dual_module(m)
            dual.validate()
            assert dense_table(dual.action, dual.space) == dense_dual_action(m)
            for phi in morphisms:
                restricted = restrict_scalars(m, phi)
                restricted.validate()
                restricted = restricted.action
                assert dense_table(restricted, m.space) == dense_restricted_action(m, phi)
                seen["restrict"] += bool(restricted)
            # raised two degrees, so that the cone is nonnegatively graded
            x = suspend_module(m, -2)
            f, kernel = solve_chain_maps(x, target)
            glm = f.map
            for g in kernel:
                glm = add_maps(glm, g.map.scale(a.field.of(rng.randint(-2, 2))))
            f = DgModuleMorphism(x, target, glm)
            f.validate()
            cone_mod = module_mapping_cone(f)[0]
            cone_mod.validate()
            assert dense_table(cone_mod.action, cone_mod.space) == dense_cone_action(f)
            cone = semi_trivial_cone(f)
            assert (dense_table(cone.algebra.product, cone.space)
                    == dense_cone_product(cone, f))
            seen["cone"] += any(k[1] >= cone.split.y_dim(k[0])
                                for k in cone.algebra.product)
    # the samples reach nonzero restricted tables and mixed cone products
    assert seen["restrict"] > 50 and seen["cone"] > 25, seen
