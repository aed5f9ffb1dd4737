import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orthoposet.builder import (MINUS, PLUS, BuilderError, ProjectionFamily,
                                basic_pair, build_from_chain,
                                build_quadruple_continuous, dualize,
                                lift_to_catalog)
from orthoposet.chain import (DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2,
                              ChainContext, EigenChain,
                              enumerate_irreducibles, run_chain)
from orthoposet.poset import Poset, PosetError, disjoint_union, dual, is_isomorphic
from orthoposet.spectrum import Character
from orthoposet.verify import check_all, check_essential, commutant_dim, spectrum_match

EXACT = 1e-12

P1 = Poset(["g1", "g2"], ())
P2 = Poset(["g3", "g4"], ())
DIAMOND = Poset(["g1", "g2", "g5"], [("g1", "g5"), ("g2", "g5")])


def quad_context(a1, a2, a3, a4):
    return ChainContext(P1, Character({"g1": a1, "g2": a2}),
                        P2, Character({"g3": a3, "g4": a4}))


def diamond_context(a, a5):
    chi1 = Character({"g1": a, "g2": a, "g5": a5})
    chi2 = Character({"g3": a, "g4": a})
    return ChainContext(DIAMOND, chi1, P2, chi2)


def test_basic_pair_is_rank_one_projection():
    m = basic_pair(0.4)
    assert np.allclose(m @ m, m, atol=EXACT)
    assert np.allclose(m, m.T, atol=EXACT)
    assert abs(np.trace(m) - 1.0) < EXACT


def test_plus_minus_pair_sums_to_diagonal():
    total = basic_pair(0.4, PLUS) + basic_pair(0.4, MINUS)
    assert np.allclose(total, np.diag([1.4, 0.6]), atol=EXACT)


def test_basic_pair_rejects_boundary_tau():
    for tau in (-1.0, 1.0, 1.5):
        with pytest.raises(BuilderError, match="is not interior to"):
            basic_pair(tau)
    with pytest.raises(BuilderError, match="sign must be 'plus' or 'minus'"):
        basic_pair(0.1, "sideways")


def test_build_three_point_family():
    ch = run_chain(quad_context(0.6, 0.6, 0.6, 0.6), 0.0)
    fams = build_from_chain(ch)
    assert len(fams) == 2  # one per up-set branch of the discrete mu
    for fam in fams:
        assert abs(fam.block_params["p"][0] - 1 / 3) < EXACT
        assert abs(fam.block_params["q"][0] - 1 / 3) < EXACT
        assert abs(fam.block_params["r"][0] - 2 / 3) < EXACT
        assert abs(fam.block_params["s"][0] - 2 / 3) < EXACT
        a1 = fam.weighted_sum(("g1", "g2"))
        assert np.allclose(a1, np.diag([0.0, 0.8, 0.4]), atol=EXACT)
        report = check_all(fam)
        assert report.passed and report.irreducible
        assert spectrum_match(fam, ch)


def test_build_rejects_escaped_chain():
    ch = run_chain(quad_context(0.61, 0.66, 0.57, 0.71), 0.0)
    with pytest.raises(BuilderError):
        build_from_chain(ch)


def test_build_rejects_a_continuous_value_without_its_reflection():
    ctx = quad_context(0.6, 0.6, 0.6, 0.6)
    alone = EigenChain([0.0, 0.3], [1.0, 0.7], DISCRETE_IN_DELTA1, ctx)
    with pytest.raises(BuilderError, match="continuous value 0.3 at position 1 "
                       "has no reflection partner"):
        build_from_chain(alone)
    unreflected = EigenChain([0.0, 0.3, 0.4], [1.0, 0.7, 0.6], DISCRETE_IN_DELTA2, ctx)
    with pytest.raises(BuilderError, match="values 0.3, 0.4 do not reflect about sigma/2"):
        build_from_chain(unreflected)


def test_build_rejects_a_discrete_value_that_no_up_set_weighs():
    # Delta1 comes from weights 0.6, 0.6, so 1.2 is one of its discrete
    # points; the character changed after it, and no up-set weighs 1.2 now
    ctx = quad_context(0.6, 0.6, 0.6, 0.6)
    ctx.chi1 = Character({"g1": 0.6, "g2": 0.7})
    chain = EigenChain([1.2], [0.0], DISCRETE_IN_DELTA1, ctx)
    with pytest.raises(BuilderError, match=r"no up-set of \['g1', 'g2'\] has weight 1.2"):
        build_from_chain(chain)


def test_pair_blocks_hold_the_bits_of_basic_pair():
    ch = run_chain(quad_context(0.6, 0.6, 0.6, 0.6), 0.0)
    for fam in build_from_chain(ch):
        # one pair block per layer: at coordinates 1, 2 of the lambdas and
        # 0, 1 of the mus
        for g, sign, k, at in [("g1", PLUS, "p", 1), ("g2", MINUS, "q", 1),
                               ("g3", PLUS, "r", 0), ("g4", MINUS, "s", 0)]:
            block = fam.projections[g][at:at + 2, at:at + 2]
            assert np.array_equal(block, basic_pair(fam.block_params[k][0], sign))


def test_family_json_round_trip():
    ch = run_chain(quad_context(0.6, 0.6, 0.6, 0.6), 0.0)
    fam = build_from_chain(ch)[0]
    back = ProjectionFamily.from_dict(json.loads(json.dumps(fam.to_dict())), fam.poset)
    for g in fam.poset.elements:
        assert np.allclose(back.projections[g], fam.projections[g], atol=0)


def test_family_holds_one_stack_of_one_dtype():
    mixed = ProjectionFamily(P1, Character({"g1": 0.5, "g2": 0.5}),
                             {"g1": np.eye(2), "g2": np.eye(2) * (1 + 0j)})
    assert mixed.stack.shape == (2, 2, 2) and mixed.stack.dtype == np.complex128
    assert list(mixed.projections) == ["g1", "g2"]
    for g, row in zip(mixed.projections, mixed.stack):
        assert mixed.projections[g].dtype == np.complex128
        assert np.shares_memory(mixed.projections[g], mixed.stack)
        assert np.array_equal(mixed.projections[g], row)
    with pytest.raises(TypeError):
        mixed.projections["g1"] = np.zeros((2, 2))
    with pytest.raises(BuilderError, match="square matrices of one size, got \\[\\]"):
        ProjectionFamily(P1, Character({"g1": 0.5, "g2": 0.5}), {})
    # a document read back is real only if no entry has an imaginary part
    real = build_quadruple_continuous((0.5,) * 4, 0.25, 1.0)
    assert ProjectionFamily.from_dict(real.to_dict(), real.poset).stack.dtype == np.float64
    twisted = build_quadruple_continuous((0.5,) * 4, 0.25, 1j)
    back = ProjectionFamily.from_dict(twisted.to_dict(), twisted.poset)
    assert back.stack.dtype == np.complex128
    assert np.array_equal(back.stack, twisted.stack)


def test_family_refuses_zero_dimensional_projections():
    # the verifier's commutant and residuals would be taken over the zero
    # space, where commutant_dim raised IndexError
    with pytest.raises(BuilderError, match="square matrices of one size, got \\[\\(0, 0\\)\\]"):
        commutant_dim(ProjectionFamily(Poset(["a"], []), Character({"a": 1.0}),
                                       {"a": np.zeros((0, 0))}))


def test_continuous_series_validation():
    with pytest.raises(BuilderError, match="need 2"):
        build_quadruple_continuous((0.5, 0.5, 0.5, 0.6), 0.25, 1.0)
    with pytest.raises(BuilderError, match="is outside"):
        build_quadruple_continuous((0.5, 0.5, 0.5, 0.5), 0.55, 1.0)
    with pytest.raises(BuilderError):
        build_quadruple_continuous((0.5, 0.5, 0.5, 0.5), 0.25, 2.0)
    with pytest.raises(BuilderError):
        build_quadruple_continuous((0.5,) * 4, 0.25, 1.0,
                                   parts=(("z", "a", "b"), ("d", "e")))


def test_continuous_series_names_its_pairs():
    fam = build_quadruple_continuous((0.5,) * 4, 0.25, 1.0,
                                     parts=(("b", "a"), ("d", "c")))
    assert list(fam.projections) == ["b", "a", "d", "c"]
    assert fam.poset.elements == ("b", "a", "d", "c")
    assert fam.split == (("b", "a"), ("d", "c"))
    default = build_quadruple_continuous((0.5,) * 4, 0.25, 1.0)
    for g, h in zip(fam.poset.elements, default.poset.elements):
        assert np.array_equal(fam.projections[g], default.projections[h])
    assert check_all(fam).passed


def test_continuous_series_phase_changes_geometry():
    real = build_quadruple_continuous((0.5,) * 4, 0.25, 1.0)
    assert real.projections["g3"].dtype == np.float64
    assert abs(np.trace(real.projections["g1"] @ real.projections["g3"]) - 0.75) < EXACT
    twisted = build_quadruple_continuous((0.5,) * 4, 0.25, 1j)
    assert twisted.projections["g3"].dtype == np.complex128
    overlap = np.trace(twisted.projections["g1"] @ twisted.projections["g3"]).real
    assert abs(overlap - 0.375) < EXACT
    for fam in (real, twisted):
        report = check_all(fam)
        assert report.passed and report.irreducible
        total = fam.weighted_sum(("g1", "g2")) + fam.weighted_sum(("g3", "g4"))
        assert np.allclose(total, np.eye(2), atol=EXACT)


def test_disjoint_union_rejects_shared_elements():
    with pytest.raises(PosetError):
        disjoint_union(P1, Poset(["g2", "g9"], []))


def test_lift_to_catalog():
    eps = 0.0131
    ctx = diamond_context(0.5 + eps, 0.5 - 2 * eps)  # terminates at mu = 0
    chains = [ch for ch in enumerate_irreducibles(ctx) if ch.dimension == 3]
    assert chains
    fams = lift_to_catalog("a2", chains[0])
    assert fams
    for fam in fams:
        assert is_isomorphic(fam.poset, Poset(
            ["g1", "g2", "g3", "g4", "g5"], [("g1", "g5"), ("g2", "g5")]))
        report = check_all(fam)
        assert report.passed and report.irreducible
        assert check_essential(fam, 1e-8)


def test_lift_rejects_wrong_shapes():
    eps = 0.0131
    ctx = diamond_context(0.5 + eps, 0.5 - 2 * eps)
    ch = enumerate_irreducibles(ctx)[0]
    with pytest.raises(BuilderError):
        lift_to_catalog("a4", ch)  # union is not the a4 poset
    with pytest.raises(BuilderError):
        lift_to_catalog("a8", ch)
    a3 = ctx.chi2["g3"]
    a4 = ctx.chi2["g4"]
    fake = EigenChain([0.0, 1.0], [1.0, a3 + a4], DISCRETE_IN_DELTA2, ctx)
    with pytest.raises(BuilderError, match="not a a2 shape"):
        lift_to_catalog("a2", fake)


def test_lift_rejects_the_bare_pair_as_first_part():
    # a2 and a6 read the weights above the first part's pair, and a bare
    # pair has none
    bare, chi = Poset(["g3", "g4"]), Character({"g3": 0.1, "g4": 0.5})
    ctx = ChainContext(bare, chi, DIAMOND, Character({"g1": 0.7, "g2": 0.7, "g5": 0.9}))
    [chain] = enumerate_irreducibles(ctx)
    assert chain.dimension == 1
    with pytest.raises(BuilderError, match=r"first part \['g3', 'g4'\] .* not a a2 shape"):
        lift_to_catalog("a2", chain)
    tower = Poset(["g1", "g2", "g5", "g6"], [("g1", "g5"), ("g2", "g5"), ("g5", "g6")])
    ctx = ChainContext(bare, chi, tower,
                       Character({"g1": 0.7, "g2": 0.7, "g5": 0.9, "g6": 0.3}))
    fake = EigenChain([0.0], [1.0], DISCRETE_IN_DELTA1, ctx)
    with pytest.raises(BuilderError, match=r"first part \['g3', 'g4'\] .* not a a6 shape"):
        lift_to_catalog("a6", fake)


def test_dualize_requires_excess_weight():
    fam = ProjectionFamily(Poset(["g1"], []), Character({"g1": 1.0}),
                           {"g1": np.eye(1)})
    with pytest.raises(BuilderError, match="must exceed one"):
        dualize(fam)


def test_dualize_involution():
    ch = run_chain(quad_context(0.6, 0.6, 0.6, 0.6), 0.0)
    fam = build_from_chain(ch)[0]
    co = dualize(fam)
    assert co.poset == dual(fam.poset)
    assert check_all(co).passed
    back = dualize(co)
    for g in fam.poset.elements:
        assert np.allclose(back.projections[g], fam.projections[g], atol=EXACT)
        assert abs(back.character[g] - fam.character[g]) < EXACT


@seed(41)
@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=4))
def test_exact_terminating_ladders_build_clean(k):
    # a = (2k+1)/(4k+1) closes the chain at an interior discrete point
    a = (2.0 * k + 1.0) / (4.0 * k + 1.0)
    ch = run_chain(quad_context(a, a, a, a), 0.0)
    assert ch.termination == DISCRETE_IN_DELTA2
    assert ch.dimension == 2 * k + 1
    for fam in build_from_chain(ch):
        report = check_all(fam)
        assert report.passed
        layers = fam.weighted_sum(("g1", "g2")) + fam.weighted_sum(("g3", "g4"))
        assert np.allclose(layers, np.eye(ch.dimension), atol=EXACT)
        for key in ("p", "q", "r", "s"):
            for value in fam.block_params[key]:
                assert -1.0 < value < 1.0


@seed(42)
@settings(max_examples=25, deadline=None)
@given(eps=st.floats(min_value=0.002, max_value=0.08),
       m=st.integers(min_value=1, max_value=2))
def test_planted_diamond_recipes_build_clean(eps, m):
    ctx = diamond_context(0.5 + eps, 1.0 / (2 * m) - 2 * eps)
    chains = [ch for ch in enumerate_irreducibles(ctx)
              if ch.dimension == 2 * m + 1]
    assert chains
    for fam in build_from_chain(chains[0]):
        report = check_all(fam)
        assert report.passed
        assert spectrum_match(fam, chains[0])
