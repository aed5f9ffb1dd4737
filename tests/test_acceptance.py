"""Acceptance sweep: one test per shipped guarantee, frozen seeds throughout."""

import json
import time

import numpy as np

from orthoposet.builder import (BuilderError, MINUS, PLUS, basic_pair,
                                build_from_chain, build_quadruple_continuous,
                                dualize, lift_to_catalog)
from orthoposet.chain import (DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2,
                              ChainContext, ZeroLambdaCap, dimension_bound,
                              enumerate_irreducibles, run_chain)
from orthoposet.oracle import SearchConfig, cross_validate, search_numeric
from orthoposet.poset import (A8, ONE_PARAMETER, Poset, classify,
                              essential_catalog_match, generate_posets,
                              split_two_one_parameter)
from orthoposet.spectrum import (CONTINUOUS, OUTSIDE, Character, delta_of,
                                 membership)
from orthoposet.verify import check_all, check_essential, spectrum_match

PAIR12 = Poset(("g1", "g2"), ())
PAIR34 = Poset(("g3", "g4"), ())
DIAMOND = Poset(("g1", "g2", "g5"), (("g1", "g5"), ("g2", "g5")))
A6_PART1 = Poset(("g1", "g2", "g5", "g6"),
                 (("g1", "g5"), ("g2", "g5"), ("g5", "g6")))
A4_PART2 = Poset(("g3", "g4", "g6"), (("g3", "g6"), ("g4", "g6")))
EPS = 0.0131
QUICK = SearchConfig(dimension=1, restarts=4, max_iterations=2000, seed=0)


def quadruple_context(a1, a2, a3, a4):
    return ChainContext(PAIR12, Character({"g1": a1, "g2": a2}),
                        PAIR34, Character({"g3": a3, "g4": a4}))


def test_criterion_1_quadruple_three_point_family():
    t0 = time.time()
    chain = run_chain(quadruple_context(0.6, 0.6, 0.6, 0.6), 0.0)
    assert chain.termination == DISCRETE_IN_DELTA2
    assert chain.dimension == 3
    families = build_from_chain(chain)
    assert len(families) == 2
    for fam in families:
        report = check_all(fam, 1e-10)
        assert report.passed
        assert report.irreducible
        assert spectrum_match(fam, chain)
        assert np.allclose(fam.weighted_sum(("g1", "g2")),
                           np.diag([0.0, 0.8, 0.4]), atol=1e-10)
        assert np.allclose(fam.block_params["p"], [1.0 / 3.0], atol=1e-10)
        assert np.allclose(fam.block_params["q"], [1.0 / 3.0], atol=1e-10)
        assert np.allclose(fam.block_params["r"], [2.0 / 3.0], atol=1e-10)
        assert np.allclose(fam.block_params["s"], [2.0 / 3.0], atol=1e-10)
    assert time.time() - t0 < 1.0
    print("criterion 1: PASS - two verified irreducible three-point families")


def test_criterion_2_chain_length_bound():
    t0 = time.time()
    rng = np.random.default_rng(20)
    kept = 0
    worst = None
    while kept < 500:
        w = rng.uniform(0.05, 1.2, size=4)
        if w.sum() <= 1.0:
            continue
        ctx = quadruple_context(*w)
        if ctx.lambda_cap <= 0.05:
            continue
        kept += 1
        chain = run_chain(ctx, 0.0)
        increments = (chain.dimension - 1) // 2
        bound = dimension_bound(ctx)
        assert bound is not None
        assert increments <= bound, (list(w), chain.dimension, bound)
        slack = bound - increments
        if worst is None or slack < worst:
            worst = slack
    assert worst == 0  # the bound is attained, not merely respected
    assert time.time() - t0 < 10.0
    print("criterion 2: PASS - 500 random chains stay within the length bound")


def test_criterion_3_continuous_series_distinct():
    invariants = []
    for c in np.linspace(0.05, 0.45, 4):
        for theta in np.linspace(0.1, 2.9, 5):
            gamma = complex(np.cos(theta), np.sin(theta))
            fam = build_quadruple_continuous((0.5,) * 4, float(c), gamma)
            report = check_all(fam, 1e-10)
            assert report.passed, (c, theta)
            assert report.irreducible, (c, theta)
            p = fam.projections
            invariants.append((float(np.trace(p["g1"] @ p["g3"]).real),
                               float(np.trace(p["g1"] @ p["g4"]).real)))
    separation = min(max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                     for i, a in enumerate(invariants) for b in invariants[:i])
    assert separation > 1e-6  # pairwise unitarily inequivalent
    real_fam = build_quadruple_continuous((0.5,) * 4, 0.25, 1.0)
    assert real_fam.projections["g3"].dtype == np.float64
    assert abs(np.trace(real_fam.projections["g1"] @ real_fam.projections["g3"])
               - 0.75) < 1e-12
    phase_fam = build_quadruple_continuous((0.5,) * 4, 0.25, 1j)
    assert phase_fam.projections["g3"].dtype == np.complex128
    assert abs(np.trace(phase_fam.projections["g1"] @ phase_fam.projections["g3"])
               - 0.375) < 1e-12
    print("criterion 3: PASS - 20 distinct verified continuous-series families")


def test_criterion_4_catalog_recipes():
    t0 = time.time()
    a = 0.5 + EPS

    def diamond_context(a5):
        return ChainContext(DIAMOND, Character({"g1": a, "g2": a, "g5": a5}),
                            PAIR34, Character({"g3": a, "g4": a}))

    cases = []
    for m in (1, 2):
        cases.append(("pair-end ladder m=%d" % m,
                      diamond_context(1.0 / (2 * m + 1) - 2 * EPS),
                      "a2", 2 * m + 2, DISCRETE_IN_DELTA1, 1))
        cases.append(("balanced ladder m=%d" % m,
                      diamond_context(1.0 / (4 * m + 2)
                                      - (4 * m + 3) * EPS / (2 * m + 1)),
                      "a2", 2 * m + 2, DISCRETE_IN_DELTA1, 2))
        cases.append(("split ladder m=%d" % m,
                      diamond_context(1.0 / (4 * m) - 2 * EPS - EPS / (2 * m)),
                      "a2", 2 * m + 1, DISCRETE_IN_DELTA2, 2))
        cases.append(("top-end ladder m=%d" % m,
                      diamond_context(1.0 / (2 * m) - 2 * EPS),
                      "a2", 2 * m + 1, DISCRETE_IN_DELTA2, 1))
        cases.append(("two-sided m=%d" % m,
                      ChainContext(DIAMOND,
                                   Character({"g1": a, "g2": a, "g5": EPS / 2}),
                                   A4_PART2,
                                   Character({"g3": a, "g4": a,
                                              "g6": 1.0 / (2 * m) - 2.5 * EPS})),
                      "a4", 2 * m + 1, DISCRETE_IN_DELTA2, 1))
    cases.append(("four-chain m=1",
                  ChainContext(A6_PART1,
                               Character({"g1": a, "g2": a, "g5": EPS / 2,
                                          "g6": 1.0 / 3.0 - 7.0 * EPS / 3.0}),
                               PAIR34, Character({"g3": a, "g4": a})),
                  "a6", 4, DISCRETE_IN_DELTA1, 1))

    for label, ctx, target, dim, termination, count in cases:
        chains = enumerate_irreducibles(ctx)
        assert len(chains) == 1, label
        chain = chains[0]
        assert chain.dimension == dim, (label, chain.dimension)
        assert chain.termination == termination, label
        families = lift_to_catalog(target, chain)
        assert len(families) == count, (label, len(families))
        for fam in families:
            report = check_all(fam, 1e-10)
            assert report.passed, label
            assert report.irreducible, label
            assert check_essential(fam, 1e-8), label
    assert time.time() - t0 < 5.0
    print("criterion 4: PASS - 11 planted recipes produce essential families")


def test_criterion_5_catalog_completeness():
    counts = []
    hits = []
    for n in range(1, 7):
        classes = generate_posets(n)
        counts.append(len(classes))
        for p in classes:
            name = essential_catalog_match(p)
            if name is not None:
                hits.append(name)
    assert counts == [1, 2, 5, 16, 63, 318]
    assert sorted(hits) == ["(1,1,1,1)", "a2", "a2_dual", "a4", "a4_dual",
                            "a6", "a6_dual"]
    assert essential_catalog_match(A8) is None
    print("criterion 5: PASS - exactly seven catalog classes among 405 posets")


def test_criterion_6_excluded_poset_never_essential():
    t0 = time.time()
    part1_elements = ("g1", "g2", "g5", "g6")
    part1, part2 = split_two_one_parameter(A8, part1_elements)
    rng = np.random.default_rng(60)

    def uniform_char():
        while True:
            w = rng.uniform(0.05, 0.99, size=6)
            if w.sum() > 1.0:
                return Character(dict(zip(A8.elements, w)))

    def feasible_char():
        # monotone rank profile first, then an exact-trace rescale
        while True:
            d = int(rng.integers(1, 5))
            r5 = int(rng.integers(0, d + 1))
            r1 = int(rng.integers(0, r5 + 1))
            r2 = int(rng.integers(0, r5 + 1))
            r6 = int(rng.integers(0, min(r1, r2) + 1))
            r3 = int(rng.integers(0, d + 1))
            r4 = int(rng.integers(0, d + 1))
            ranks = dict(zip(A8.elements, (r1, r2, r3, r4, r5, r6)))
            if sum(ranks.values()) == 0:
                continue
            u = rng.uniform(0.1, 1.0, size=6)
            t = d / sum(ui * ranks[g] for ui, g in zip(u, A8.elements))
            w = t * u
            if np.all(w > 0.01) and np.all(w < 0.99) and w.sum() > 1.0:
                return Character(dict(zip(A8.elements, w))), d

    def planted_char():
        eps = rng.uniform(0.002, 0.08)
        w = {"g1": 0.5 + eps, "g2": 0.5 + eps, "g3": 0.5 + eps,
             "g4": 0.5 + eps, "g5": 0.5 - 2 * eps,
             "g6": rng.uniform(0.05, 0.95)}
        return Character(w)

    def built_families(chi):
        out = []
        try:
            ctx = ChainContext(part1, chi.restrict(part1_elements),
                               part2, chi.restrict(part2.elements))
            chains = enumerate_irreducibles(ctx)
        except ZeroLambdaCap:
            return out
        for chain in chains:
            if chain.dimension > 4:
                continue
            try:
                out.extend(build_from_chain(chain))
            except BuilderError:
                pass
        return out

    built_n = found_n = 0
    for i in range(200):
        if i % 4 == 2:
            chi, d = feasible_char()
            cfg = SearchConfig(dimension=d, restarts=4, max_iterations=2000,
                               seed=1000 + i)
            fam = search_numeric(A8, chi, cfg)
            if fam is not None:
                found_n += 1
                assert not check_essential(fam), (i, "oracle")
            continue
        chi = planted_char() if i % 4 == 0 else uniform_char()
        for fam in built_families(chi):
            report = check_all(fam)
            if report.passed and report.irreducible:
                built_n += 1
                assert not check_essential(fam), (i, "built")
    assert built_n == 50
    assert found_n == 9
    assert time.time() - t0 < 30.0
    print("criterion 6: PASS - %d built and %d searched families, none essential"
          % (built_n, found_n))


def test_criterion_7_spectrum_soundness():
    rng = np.random.default_rng(70)

    def random_one_parameter():
        below = int(rng.integers(0, 3))
        above = int(rng.integers(0, 3))
        names = ["b%d" % j for j in range(below)] + ["x", "y"] + \
                ["t%d" % j for j in range(above)]
        rels = []
        chain_low = ["b%d" % j for j in range(below)]
        chain_high = ["t%d" % j for j in range(above)]
        for lo, hi in zip(chain_low, chain_low[1:]):
            rels.append((lo, hi))
        for lo, hi in zip(chain_high, chain_high[1:]):
            rels.append((lo, hi))
        if chain_low:
            rels += [(chain_low[-1], "x"), (chain_low[-1], "y")]
        if chain_high:
            rels += [("x", chain_high[0]), ("y", chain_high[0])]
        return Poset(names, rels)

    def irreducible_block(p):
        # dim 1: random up-set indicator; dim 2: pair at a random interior angle
        if rng.random() < 0.5:
            ups = p.up_sets()
            u = ups[int(rng.integers(0, len(ups)))]
            return {g: np.array([[1.0 if g in u else 0.0]])
                    for g in p.elements}, 1
        tau = rng.uniform(-0.9, 0.9)
        proj = {}
        for g in p.elements:
            if g == "x":
                proj[g] = basic_pair(tau, PLUS)
            elif g == "y":
                proj[g] = basic_pair(tau, MINUS)
            elif p.less("x", g):
                proj[g] = np.eye(2)
            else:
                proj[g] = np.zeros((2, 2))
        return proj, 2

    checked = continuous_seen = 0
    for i in range(1000):
        p = random_one_parameter()
        assert classify(p) == ONE_PARAMETER
        chi = Character({g: rng.uniform(0.05, 1.0) for g in p.elements})
        delta = delta_of(p, chi)
        blocks = [irreducible_block(p) for _ in range(int(rng.integers(1, 5)))]
        eigs = []
        for proj, dim in blocks:
            summand = np.zeros((dim, dim))
            for g in p.elements:
                summand = summand + chi[g] * proj[g]
            eigs.extend(np.linalg.eigvalsh(summand))
        cont = []
        for x in eigs:
            kind = membership(delta, x, 1e-10)
            assert kind != OUTSIDE, (i, x)
            if kind == CONTINUOUS:
                cont.append(x)
        # interior eigenvalues must come in mirror pairs around sigma/2
        cont = sorted(cont)
        while cont:
            x = cont.pop(0)
            mate = delta.sigma - x
            j = min(range(len(cont)), key=lambda t: abs(cont[t] - mate),
                    default=None)
            assert j is not None and abs(cont[j] - mate) <= 1e-8, (i, x)
            cont.pop(j)
            continuous_seen += 1
        checked += len(eigs)
    assert checked == 3768
    assert continuous_seen == 1252
    print("criterion 7: PASS - %d eigenvalues in bounds, %d mirror pairs"
          % (checked, continuous_seen))


def test_criterion_8_oracle_agreement():
    t0 = time.time()
    chi1 = Character({"g1": 0.6, "g2": 0.6})
    chi2 = Character({"g3": 0.6, "g4": 0.6})
    sweep = cross_validate(PAIR12, chi1, PAIR34, chi2, range(1, 7), QUICK)
    assert sweep.agree
    by_dim = {row["dimension"]: row for row in sweep.rows}
    assert sorted(by_dim) == [1, 2, 3, 4, 5, 6]
    for d in (1, 2, 4, 5, 6):
        assert not by_dim[d]["theory"] and not by_dim[d]["oracle"]
    assert by_dim[3]["theory"] and by_dim[3]["oracle"]
    assert by_dim[3]["spectrum_matched"]

    a = 0.5 + EPS
    sweep2 = cross_validate(DIAMOND, Character({"g1": a, "g2": a,
                                                "g5": EPS / 2}),
                            A4_PART2, Character({"g3": a, "g4": a,
                                                 "g6": 0.25 - 2.5 * EPS}),
                            range(1, 7), QUICK)
    assert sweep2.agree
    by_dim2 = {row["dimension"]: row for row in sweep2.rows}
    for d in (1, 2, 3, 4, 6):
        assert not by_dim2[d]["theory"] and not by_dim2[d]["oracle"]
    assert by_dim2[5]["theory"] and by_dim2[5]["oracle"]
    assert by_dim2[5]["spectrum_matched"]

    once = json.dumps(cross_validate(PAIR12, chi1, PAIR34, chi2, (1, 3),
                                     QUICK).to_dict())
    again = json.dumps(cross_validate(PAIR12, chi1, PAIR34, chi2, (1, 3),
                                      QUICK).to_dict())
    assert once == again
    assert time.time() - t0 < 60.0
    print("criterion 8: PASS - search agrees with theory on every dimension")


def test_criterion_9_duality_involution():
    families = list(build_from_chain(run_chain(
        quadruple_context(0.6, 0.6, 0.6, 0.6), 0.0)))
    a = 0.5 + EPS
    ctx = ChainContext(DIAMOND, Character({"g1": a, "g2": a,
                                           "g5": 0.5 - 2 * EPS}),
                       PAIR34, Character({"g3": a, "g4": a}))
    for chain in enumerate_irreducibles(ctx):
        families += lift_to_catalog("a2", chain)
    assert len(families) == 3
    for fam in families:
        dual = dualize(fam)
        report = check_all(dual, 1e-10)
        assert report.passed
        assert report.irreducible
        back = dualize(dual)
        assert back.poset == fam.poset
        for g in fam.poset.elements:
            assert abs(back.character[g] - fam.character[g]) < 1e-12
            assert np.max(np.abs(back.projections[g]
                                 - fam.projections[g])) < 1e-12
    print("criterion 9: PASS - duality is an involution on verified families")
