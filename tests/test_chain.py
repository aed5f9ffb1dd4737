import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from orthoposet.chain import (DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2, ESCAPED,
                              ChainEngineError, NoRepresentation,
                              NonzeroLambdaCap, StepLimit, ZeroLambdaCap,
                              dimension_bound, enumerate_irreducibles,
                              lambda_zero_case, make_context, predict,
                              run_chain, run_degeneracy_filter)
from orthoposet.oracle import SearchConfig, search_numeric
from orthoposet.poset import Poset
from orthoposet.spectrum import Character

EXACT = 1e-12

P1 = Poset(["g1", "g2"], ())
P2 = Poset(["g3", "g4"], ())

weight = st.floats(min_value=0.1, max_value=0.95)


def quad(a1, a2, a3, a4, tol=1e-9):
    return make_context(P1, Character({"g1": a1, "g2": a2}),
                        P2, Character({"g3": a3, "g4": a4}), tol)


def test_degeneracy_filter_rejects_small_totals():
    with pytest.raises(NoRepresentation):
        run_degeneracy_filter(Character({"g1": 0.2, "g2": 0.3}))


def test_degeneracy_filter_unit_total_forces_identity():
    forced = run_degeneracy_filter(Character({"g1": 0.4, "g2": 0.6}))
    assert forced == [("g1", "I"), ("g2", "I")]


def test_degeneracy_filter_screens_large_weights():
    chi = Character({"g1": 1.3, "g2": 1.0, "g3": 0.5})
    forced = run_degeneracy_filter(chi)
    assert ("g1", "0") in forced
    assert ("g2", "0|I") in forced


def test_quadruple_context_constants():
    ctx = quad(0.6, 0.6, 0.6, 0.6)
    assert abs(ctx.sigma1 - 1.2) < EXACT
    assert abs(ctx.sigma2 - 1.2) < EXACT
    assert abs(ctx.lambda_cap - 0.4) < EXACT
    assert abs(ctx.total - 2.4) < EXACT


def test_three_point_chain():
    ch = run_chain(quad(0.6, 0.6, 0.6, 0.6), 0.0)
    assert ch.termination == DISCRETE_IN_DELTA2
    assert ch.dimension == 3
    assert np.allclose(ch.lambdas, [0.0, 0.8, 0.4], atol=1e-9)
    assert np.allclose(ch.mus, [1.0, 0.2, 0.6], atol=1e-9)
    assert not ch.boundary_ambiguous


def test_chain_requires_discrete_start():
    with pytest.raises(ChainEngineError):
        run_chain(quad(0.6, 0.6, 0.6, 0.6), 0.31)


def test_chain_rejects_zero_cap():
    with pytest.raises(ZeroLambdaCap):
        run_chain(quad(0.5, 0.5, 0.5, 0.5), 0.0)
    with pytest.raises(ZeroLambdaCap):
        enumerate_irreducibles(quad(0.5, 0.5, 0.5, 0.5))


def test_step_limit():
    with pytest.raises(StepLimit):
        run_chain(quad(5 / 9, 5 / 9, 5 / 9, 5 / 9), 0.0, max_steps=1)


def test_escape_flags_boundary_grazes():
    ch = run_chain(quad(0.6, 0.6, 0.3, 0.7 - 5e-9), 0.0)
    assert ch.termination == ESCAPED and ch.boundary_ambiguous
    ch = run_chain(quad(0.6, 0.6, 0.3, 0.6), 0.0)
    assert ch.termination == ESCAPED and not ch.boundary_ambiguous


def test_escaped_chain_has_no_small_numeric_family():
    # the oracle corroborates the non-existence verdict at low dimensions
    ctx = quad(0.61, 0.66, 0.57, 0.71)
    assert run_chain(ctx, 0.0).termination == ESCAPED
    p = Poset(["g1", "g2", "g3", "g4"], [])
    chi = Character({"g1": 0.61, "g2": 0.66, "g3": 0.57, "g4": 0.71})
    for dim in (1, 2, 3):
        cfg = SearchConfig(dimension=dim, restarts=4, max_iterations=1500)
        assert search_numeric(p, chi, cfg) is None


def test_lambda_zero_all_half():
    fam = lambda_zero_case(quad(0.5, 0.5, 0.5, 0.5))
    assert fam.one_dim == [0.0, 0.5, 1.0]
    assert fam.two_dim == []
    assert np.allclose(fam.c_interval, (0.0, 0.5), atol=EXACT)


def test_lambda_zero_mixed_pairs():
    fam = lambda_zero_case(quad(0.3, 0.9, 0.35, 0.45))
    assert fam.one_dim == []
    # each chain is reached from both of its discrete ends; one is kept
    tags = sorted(ch.termination for ch in fam.two_dim)
    assert tags == [DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2]
    for ch in fam.two_dim:
        assert abs(sum(ch.lambdas) - fam.context.sigma1) < 1e-9
    assert np.allclose(fam.c_interval, (0.3, 0.4), atol=EXACT)


def test_lambda_zero_rejects_nonzero_cap():
    with pytest.raises(NonzeroLambdaCap):
        lambda_zero_case(quad(0.6, 0.6, 0.6, 0.6))


def test_enumerate_merges_reversals():
    chains = enumerate_irreducibles(quad(2 / 3, 2 / 3, 2 / 3, 2 / 3))
    assert len(chains) == 1
    assert chains[0].dimension == 2
    assert chains[0].termination == DISCRETE_IN_DELTA1
    assert np.allclose(chains[0].lambdas, [0.0, 2 / 3], atol=1e-9)


def test_enumerate_all_point_six():
    chains = enumerate_irreducibles(quad(0.6, 0.6, 0.6, 0.6))
    assert [ch.dimension for ch in chains] == [3, 3]
    assert [ch.start_point for ch in chains] == [0.0, 0.6]


QUAD = Poset(["g1", "g2", "g3", "g4"], ())


@pytest.mark.parametrize("weights, mode, forced, scalar, dims", [
    ((0.6, 0.6, 0.6, 0.6), "chains", [], [], [3, 3]),
    ((0.5, 0.5, 0.5, 0.5), "two-point", [], [], [1, 1, 1]),
    ((0.25, 0.25, 0.25, 0.25), "scalar",
     [("g1", "I"), ("g2", "I"), ("g3", "I"), ("g4", "I")], [(1, 1, 1, 1)], []),
    # g1 is pinned; dimension 1 comes from the 0/1 solutions alone
    ((1.2, 0.4, 0.3, 0.3), "chains", [("g1", "0")], [(0, 1, 1, 1)], []),
])
def test_predict(weights, mode, forced, scalar, dims):
    pred = predict(QUAD, Character(dict(zip(QUAD.elements, weights))), ["g1", "g2"])
    assert pred.mode == mode
    assert pred.forced == forced
    assert pred.scalar == scalar
    assert [ch.dimension for ch in pred.chains] == dims
    assert (pred.context is None) == (mode == "scalar")
    assert (pred.two_point is not None) == (mode == "two-point")


def test_predict_drops_pinned_elements_from_the_parts():
    chi = Character({"g1": 0.6, "g2": 0.6, "g3": 0.6, "g4": 0.6, "g5": 1.5})
    p = Poset(["g1", "g2", "g3", "g4", "g5"], [("g5", "g1"), ("g5", "g2")])
    pred = predict(p, chi, ["g5", "g1", "g2"])
    assert pred.context.part1.elements == ("g1", "g2")
    assert pred.context.part2.elements == ("g3", "g4")
    assert [ch.dimension for ch in pred.chains] == [3, 3]


@pytest.mark.xfail(strict=True, reason="chains start only from Delta1's discrete "
                   "points, so a chain with both ends discrete in Delta2 is missed")
def test_predict_finds_chains_with_both_ends_in_delta2():
    # split g3,g4 on the same weights finds both: dimensions 2 and 3
    chi = Character(dict(zip(QUAD.elements, (0.6, 0.6, 0.8, 0.5))))
    assert sorted(ch.dimension for ch in predict(QUAD, chi, ["g1", "g2"]).chains) == [2, 3]


def test_dimension_bound_values():
    assert dimension_bound(quad(0.6, 0.6, 0.6, 0.6)) == 3
    assert dimension_bound(quad(5 / 9, 5 / 9, 5 / 9, 5 / 9)) == 5
    assert dimension_bound(quad(0.5, 0.5, 0.5, 0.5)) == 2
    assert dimension_bound(quad(0.3, 0.3, 0.3, 0.4)) == 1  # through the dual
    assert dimension_bound(quad(0.2, 0.2, 0.2, 0.2)) is None


def test_chain_json():
    ch = run_chain(quad(0.6, 0.6, 0.6, 0.6), 0.0)
    doc = ch.to_dict()
    assert doc["dimension"] == 3
    assert doc["termination"] == DISCRETE_IN_DELTA2


@seed(31)
@settings(max_examples=150)
@given(a1=weight, a2=weight, a3=weight, a4=weight)
def test_chain_entries_match_closed_form(a1, a2, a3, a4):
    ctx = quad(a1, a2, a3, a4)
    assume(abs(ctx.lambda_cap) > 1e-3)
    ch = run_chain(ctx, 0.0)
    cap = ctx.lambda_cap
    for i, lam in enumerate(ch.lambdas):
        k, odd = divmod(i, 2)
        want = (2.0 - ctx.sigma2) - k * cap if odd else k * cap
        assert abs(lam - want) < EXACT
    for i, mu in enumerate(ch.mus):
        k, odd = divmod(i, 2)
        want = (ctx.sigma2 - 1.0) + k * cap if odd else 1.0 - k * cap
        assert abs(mu - want) < EXACT


@seed(32)
@settings(max_examples=150)
@given(a1=weight, a2=weight, a3=weight, a4=weight)
def test_even_positions_sum_to_one(a1, a2, a3, a4):
    ctx = quad(a1, a2, a3, a4)
    assume(abs(ctx.lambda_cap) > 1e-3)
    ch = run_chain(ctx, 0.0)
    assert len(ch.lambdas) == len(ch.mus)
    for lam, mu in zip(ch.lambdas[::2], ch.mus[::2]):
        assert abs(lam + mu - 1.0) < EXACT


@seed(33)
@settings(max_examples=200)
@given(a1=weight, a2=weight, a3=weight, a4=weight)
def test_zero_start_respects_dimension_bound(a1, a2, a3, a4):
    ctx = quad(a1, a2, a3, a4)
    assume(ctx.lambda_cap > 0.05 and ctx.total > 1.0)
    ch = run_chain(ctx, 0.0)
    assert (ch.dimension - 1) // 2 <= dimension_bound(ctx)
