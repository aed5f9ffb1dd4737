import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from orthoposet.chain import (DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2, ESCAPED,
                              ChainContext, ChainEngineError, NoRepresentation,
                              ZeroLambdaCap, dimension_bound, enumerate_dim1,
                              enumerate_irreducibles,
                              lambda_zero_case, predict, run_chain,
                              run_degeneracy_filter)
from orthoposet.oracle import SearchConfig, search_numeric
from orthoposet.poset import (Poset, PosetError, check_one_parameter, check_split,
                              generate_posets)
from orthoposet.spectrum import DEFAULT_TOL, Character

EXACT = 1e-12

P1 = Poset(["g1", "g2"], ())
P2 = Poset(["g3", "g4"], ())

weight = st.floats(min_value=0.1, max_value=0.95)


def quad(a1, a2, a3, a4, tol=1e-9):
    return ChainContext(P1, Character({"g1": a1, "g2": a2}),
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


def test_chain_requires_discrete_start():
    with pytest.raises(ChainEngineError):
        run_chain(quad(0.6, 0.6, 0.6, 0.6), 0.31)


def test_chain_rejects_zero_cap():
    ctx = quad(0.5, 0.5, 0.5, 0.5)
    for run in (lambda: run_chain(ctx, 0.0), lambda: enumerate_irreducibles(ctx)):
        with pytest.raises(ZeroLambdaCap, match="use lambda_zero_case"):
            run()


def test_step_limit():
    # the chain from 0 ends DiscreteInDelta2 after 25,000 steps, past the limit
    message = ("no termination within 10000 steps from lambda0 = 0.0: each step "
               "moves lambda by lambda_cap = 3.99.*e-05 within \\[0, 1\\], so the "
               "chain ends within 25001 steps")
    with pytest.raises(ChainEngineError, match=message):
        run_chain(quad(0.50001, 0.50001, 0.50001, 0.50001), 0.0)


def test_chain_escapes_on_and_off_a_boundary_graze():
    assert run_chain(quad(0.6, 0.6, 0.3, 0.7 - 5e-9), 0.0).termination == ESCAPED
    assert run_chain(quad(0.6, 0.6, 0.3, 0.6), 0.0).termination == ESCAPED


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
    assert fam.to_dict()["one_dim"] == [0.0, 0.5, 1.0]
    assert fam.to_dict()["two_dim"] == []
    assert np.allclose(fam.c_interval, (0.0, 0.5), atol=EXACT)


def test_lambda_zero_mixed_pairs():
    fam = lambda_zero_case(quad(0.3, 0.9, 0.35, 0.45))
    assert fam.to_dict()["one_dim"] == []
    # each chain is reached from both of its discrete ends; one is kept
    tags = sorted(ch.termination for ch in fam.chains)
    assert tags == [DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2]
    for ch in fam.chains:
        assert abs(sum(ch.lambdas) - fam.context.sigma1) < 1e-9
    assert np.allclose(fam.c_interval, (0.3, 0.4), atol=EXACT)


def test_lambda_zero_rejects_nonzero_cap():
    with pytest.raises(ChainEngineError, match="is not zero"):
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


def test_predict_checks_what_pinning_leaves_of_each_part():
    # t pins g3 and g4, so the second part is left empty; h is pinned too, and
    # what is left of the first part, g1 < > g2, is one-parameter. Above
    # dimension 1 that leaves 0.6 P1 + 0.6 P2 = I, which has no solution.
    p = Poset(["g1", "g2", "g3", "g4", "h", "t"], [("g3", "t"), ("g4", "t")])
    chi = Character({"g1": 0.6, "g2": 0.6, "g3": 0.6, "g4": 0.6, "h": 1.5, "t": 1.5})
    pred = predict(p, chi, ["g1", "g2", "h"])
    assert (pred.mode, pred.forced) == ("scalar", [("h", "0"), ("t", "0")])
    assert pred.scalar == pred.chains == []
    assert pred.context is None and pred.two_point is None


@pytest.mark.xfail(strict=True, reason="chains start only from Delta1's discrete "
                   "points, so a chain with both ends discrete in Delta2 is missed")
def test_predict_finds_chains_with_both_ends_in_delta2():
    # split g3,g4 on the same weights finds both: dimensions 2 and 3
    chi = Character(dict(zip(QUAD.elements, (0.6, 0.6, 0.8, 0.5))))
    assert sorted(ch.dimension for ch in predict(QUAD, chi, ["g1", "g2"]).chains) == [2, 3]


FIVE = ["g1", "g2", "g3", "g4", "g5"]
# (poset, first part, how often a weight enters sigma1 + sigma2 if not once)
ZERO_CAP_SHAPES = [(QUAD, ["g1", "g2"], {}),
                   (Poset(FIVE, [("g1", "g5"), ("g2", "g5")]), ["g1", "g2", "g5"], {"g5": 2}),
                   (Poset(FIVE, [("g5", "g1"), ("g5", "g2")]), ["g1", "g2", "g5"], {"g5": 0})]


def zero_cap_inputs(rng, count):
    """count (poset, character, split) of zero step constant: quads a, b, c,
    2 - a - b - c, and g1, g2 below or above g5 beside g3, g4, with g4's
    weight fixing sigma1 + sigma2 = 2. Weights lie in (0, 1), in tenths,
    eighths or hundredths, so nothing is pinned."""
    while count:
        p, split, times = rng.choice(ZERO_CAP_SHAPES)
        den = rng.choice((10, 8, 100))
        ks = {g: rng.randrange(1, den) for g in p.elements if g != "g4"}
        k4 = 2 * den - sum(times.get(g, 1) * k for g, k in ks.items())
        if 0 < k4 < den:
            ks["g4"] = k4
            count -= 1
            yield p, Character({g: ks[g] / den for g in p.elements}), split


def rounded(values):
    return tuple(round(v, 9) for v in values)


def test_part_swap_at_zero_cap_swaps_lambda_and_mu():
    # the complement split reads each chain with lambda and mu swapped; a
    # chain with both discrete ends in delta2 is one in delta1 there
    def chains(pred, swap):
        keys = []
        for ch in pred.chains:
            lam, mu = (ch.mus, ch.lambdas) if swap else (ch.lambdas, ch.mus)
            keys.append(min((rounded(lam), rounded(mu)),
                            (rounded(lam[::-1]), rounded(mu[::-1]))))
        return sorted(keys)

    for p, chi, split in zero_cap_inputs(random.Random(27), 3000):
        pred = predict(p, chi, split)
        swapped = predict(p, chi, [g for g in p.elements if g not in split])
        assert pred.mode == swapped.mode == "two-point"
        assert pred.scalar == swapped.scalar
        assert chains(pred, False) == chains(swapped, True), (chi, split)


def valid_splits(p):
    "each split of p that check_split and check_one_parameter accept"
    for r in range(1, len(p.elements)):
        for split in itertools.combinations(p.elements, r):
            try:
                for part in check_split(p, split):
                    check_one_parameter(p.induced(part))
            except PosetError:
                continue
            yield split


def shape_sweep(rng):
    """(p, chi, split) for every shape on 2 to 5 points, each valid split,
    and 24 weight draws from rng in tenths and eighths; chi is a dict."""
    for n in range(2, 6):
        for p in generate_posets(n):
            for split in valid_splits(p):
                for den in (10, 8) * 12:
                    yield p, {g: rng.randrange(1, 3 * den // 2 + 1) / den
                              for g in p.elements}, split


def test_relabeling_keeps_chains_and_0_1_solutions():
    # shuffling and renaming the elements of every shape on 2 to 5 points
    # changes neither the chains nor the 0/1 solutions of any split
    def outcome(p, chi, split, back):
        try:
            pred = predict(p, chi, split)
        except (ChainEngineError, PosetError) as exc:
            return type(exc).__name__
        return (pred.mode, sorted((back[g], tag) for g, tag in pred.forced),
                sorted(sorted(back[g] for g, bit in zip(p.elements, bits) if bit)
                       for bits in pred.scalar),
                [(rounded(ch.lambdas), rounded(ch.mus), ch.termination)
                 for ch in pred.chains])

    rng = random.Random(28)
    inputs = 0
    for p, chi, split in shape_sweep(rng):
        identity = dict(zip(p.elements, p.elements))
        order = rng.sample(p.elements, len(p.elements))
        new = dict(zip(order, rng.sample(["v%d" % i for i in range(10)], len(order))))
        back = {v: g for g, v in new.items()}
        q = Poset([new[g] for g in order],
                  [(new[g], new[h]) for g, h in p.relations])
        chi_q = Character({new[g]: chi[g] for g in order})
        assert (outcome(p, Character(chi), split, identity)
                == outcome(q, chi_q, [new[g] for g in split], back)), \
            (p, chi, split)
        inputs += 1
    assert inputs == 46 * 24


def test_a_chain_ending_in_delta1_is_reached_from_its_other_end():
    # run from its last lambda, a kept chain that ends discrete in delta1
    # walks back to its first, lambda and mu reversed; chains that end in
    # delta2 are test_predict_finds_chains_with_both_ends_in_delta2's
    def contexts():
        for k in range(4, 61, 2):
            yield quad(*[0.5 + 1 / k] * 4)
        for p, chi, split in shape_sweep(random.Random(28)):
            try:
                pred = predict(p, Character(chi), split)
            except (ChainEngineError, PosetError):
                continue
            if pred.mode == "chains":
                yield pred.context

    checked = 0
    for ctx in contexts():
        for ch in enumerate_irreducibles(ctx):
            if ch.termination != DISCRETE_IN_DELTA1:
                continue
            back = run_chain(ctx, ch.lambdas[-1])
            slack = 10 * ctx.tol
            assert (back.dimension, back.termination) == (ch.dimension, ch.termination)
            assert np.allclose(back.lambdas, ch.lambdas[::-1], rtol=0, atol=slack), ch
            assert np.allclose(back.mus, ch.mus[::-1], rtol=0, atol=slack), ch
            checked += 1
    # seven from the quads, at k = 6, 14, ..., 54, and five from the sweep
    assert checked == 7 + 5


def test_enumerate_dim1_matches_a_brute_force_listing():
    # every 0/1 vector of every shape on 1 to 5 points that is upward closed
    # and weighs one, against the weight-pruned walk; weights in tenths,
    # eighths and sixths make unit sums common, and 1 or more pins
    rng = random.Random(33)
    inputs = solutions = 0
    for k in range(1, 6):
        for p in generate_posets(k):
            for _ in range(40):
                den = rng.choice((10, 8, 6))
                chi = Character({g: rng.randrange(1, 3 * den // 2 + 1) / den
                                 for g in p.elements})
                want = [bits for bits in itertools.product((0, 1), repeat=k)
                        if all(bits[j] for i, j in itertools.permutations(range(k), 2)
                               if bits[i] and p.less(p.elements[i], p.elements[j]))
                        and abs(sum(chi[g] for g, b in zip(p.elements, bits) if b) - 1.0)
                        <= DEFAULT_TOL]
                assert enumerate_dim1(p, chi) == want, (p, chi)
                inputs += 1
                solutions += len(want)
    assert inputs == 3480 and solutions > 1000, solutions


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
