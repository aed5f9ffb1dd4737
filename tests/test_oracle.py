import collections
import dataclasses
import itertools
import json
import logging
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from orthoposet import oracle
from orthoposet.builder import ProjectionFamily, build_from_chain, dualize
from orthoposet.chain import (ChainContext, NoRepresentation, enumerate_dim1,
                              enumerate_irreducibles, predict)
from orthoposet.cli import _on_input
from orthoposet.oracle import (ACCEPT_TOL, ANDERSON_MEMORY, LANE_POOL,
                               PROFILE_SLACK, STALL_FACTOR, STALL_WINDOW,
                               OracleError, SearchConfig, _run_lanes, _start,
                               _spectrum_matched, cross_validate,
                               cross_validate_split, norm_feasible,
                               orbit_first, rank_profiles, search_numeric,
                               trace_feasible)
from orthoposet.poset import Poset, dual, generate_posets
from orthoposet.spectrum import DEFAULT_TOL, Character, SpectrumError
from orthoposet.verify import GOLDEN_FRACTION, check_all, commutant_dim
from test_chain import shape_sweep, valid_splits

QUAD = Poset(["g1", "g2", "g3", "g4"], [])
CHAIN2 = Poset(["x", "y"], [("x", "y")])

POINT_SIX = Character({g: 0.6 for g in QUAD.elements})
# an antichain of total weight 2, one of the benchmark's zero-cap quads
ZERO_CAP = Character({"g1": 0.3719, "g2": 1 - 0.3719, "g3": 0.6143, "g4": 1 - 0.6143})
QUICK = SearchConfig(dimension=1, restarts=4, max_iterations=2000, seed=0)


def test_search_config_validation():
    with pytest.raises(OracleError):
        SearchConfig(dimension=0)
    with pytest.raises(OracleError):
        SearchConfig(dimension=2, restarts=0)
    for ranks in ((4, 0, 0, 0), (0, -1, 0, 0), (1.5, 1.5, 1, 1), (1.0, 2, 1, 1)):
        with pytest.raises(OracleError, match="rank_profile"):
            SearchConfig(dimension=3, rank_profile=ranks)
    cfg = dataclasses.replace(QUICK, dimension=3, rank_profile=(1, 1, 1, 1))
    assert cfg.dimension == 3 and cfg.rank_profile == (1, 1, 1, 1)
    assert QUICK.rank_profile is None  # replace does not mutate
    doc = dataclasses.asdict(cfg)
    assert doc["restarts"] == 4 and doc["seed"] == 0


def test_enumerate_dim1_lists_unit_weight_up_sets():
    chi = Character({"g1": 0.2, "g2": 0.8, "g3": 0.2, "g4": 0.8})
    assert enumerate_dim1(QUAD, chi) == [(0, 0, 1, 1), (0, 1, 1, 0),
                                         (1, 0, 0, 1), (1, 1, 0, 0)]


def test_enumerate_dim1_respects_order():
    # {x} alone has unit weight but is not upward closed
    assert enumerate_dim1(CHAIN2, Character({"x": 1.0, "y": 0.4})) == []
    assert enumerate_dim1(CHAIN2, Character({"x": 0.4, "y": 1.0})) == [(0, 1)]


def test_enumerate_dim1_matches_the_up_set_scan():
    # reference: every up-set of unit weight, heavy elements included
    rng = random.Random(5)
    for k in range(1, 6):
        for p in generate_posets(k):
            for _ in range(3):
                chi = Character({g: rng.choice([0.25, 0.5, 1.0, 1.5, rng.uniform(0.05, 1.2)])
                                 for g in p.elements})
                want = sorted(tuple(1 if g in u else 0 for g in p.elements)
                              for u in p.up_sets()
                              if abs(sum(chi[g] for g in u) - 1.0) <= 1e-9)
                assert enumerate_dim1(p, chi) == want, (p, chi)


def test_rank_profiles_keep_exact_trace():
    profiles = rank_profiles(QUAD, Character({g: 0.5 for g in QUAD.elements}), 2)
    assert profiles.shape == (19, 4) and profiles.dtype.kind in "iu"
    for ranks in profiles:
        assert abs(sum(0.5 * r for r in ranks) - 2.0) <= 1e-6


def test_rank_profiles_are_monotone():
    assert rank_profiles(CHAIN2, Character({"x": 0.5, "y": 0.5}), 2).tolist() == [[2, 2]]
    chi = Character({"x": 0.31415926, "y": 0.2718281828})
    assert rank_profiles(CHAIN2, chi, 2).shape == (0, 2)


def grid_rank_profiles(p, chi, dimension):
    "reference: filter and sort the whole (dimension + 1)^k rank grid"
    els = p.elements
    k = len(els)
    idx = {g: i for i, g in enumerate(els)}
    axes = [np.arange(dimension + 1)] * k
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    slack = np.abs(grid @ np.array([chi[g] for g in els]) - dimension)
    keep = slack <= PROFILE_SLACK
    for g, h in p.relations:
        keep &= grid[:, idx[g]] <= grid[:, idx[h]]
    grid, slack = grid[keep], slack[keep]
    order = np.lexsort(tuple(grid[:, i] for i in range(k - 1, -1, -1))
                       + (slack,))
    return grid[order].tolist()


def _weights(rng, els, dimension, mode):
    exact = [0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0]
    if mode == "exact":
        return {g: rng.choice(exact) for g in els}
    if mode == "mixed":
        return {g: rng.choice(exact) if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
                for g in els}
    # random weights, the last one solved so that some rank tuple hits the trace
    w = {g: rng.uniform(0.05, 1.0) for g in els}
    ranks = [rng.randint(0, dimension) for _ in els]
    last = els[-1]
    ranks[-1] = ranks[-1] or 1
    rest = dimension - sum(w[g] * r for g, r in zip(els[:-1], ranks))
    if rest > 0:
        w[last] = rest / ranks[-1]
    return w


def test_rank_profiles_match_the_full_grid():
    rng = random.Random(7)
    for k in range(1, 6):
        for q in generate_posets(k):
            names = list(q.elements)
            rng.shuffle(names)
            p = Poset(names, q.relations)
            for dimension in range(1, 7):
                for mode in ("exact", "mixed", "solved"):
                    chi = Character(_weights(rng, names, dimension, mode))
                    assert (rank_profiles(p, chi, dimension).tolist()
                            == grid_rank_profiles(p, chi, dimension)), (p, chi, dimension)


def test_rank_profiles_stay_small_on_eight_elements():
    # two chains with a pair at the bottom; the full 9^8 grid is 43M rows
    els = ["x%d" % i for i in range(8)]
    p = Poset(els, [("x0", "x4"), ("x1", "x4"), ("x4", "x6"),
                    ("x2", "x5"), ("x3", "x5"), ("x5", "x7")])
    chi = Character(dict(zip(els, (.31, .43, .37, .29, .21, .17, .13, .11))))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        profiles = rank_profiles(p, chi, 8)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(profiles) == 1043
    assert seconds < 1.0
    assert peak < 100e6


def test_trace_identity_refutes_profiles():
    # (0, 0, 2, 3) at n = 3: P_g3 and P_g4 meet in at least 2 + 3 - 3
    # dimensions, so the identity for g3 needs 2 = 0.6 * (2 + 0 + 0 + 2)
    assert trace_feasible(QUAD, POINT_SIX, [(0, 0, 2, 3), (1, 1, 1, 2)], 3).tolist() \
        == [False, True]
    assert trace_feasible(QUAD, POINT_SIX, [], 3).shape == (0,)
    profiles = rank_profiles(QUAD, POINT_SIX, 3)
    assert (len(profiles), int(trace_feasible(QUAD, POINT_SIX, profiles, 3).sum())) \
        == (40, 16)


def _profile(fam):
    return tuple(int(round(np.trace(fam.projections[g]).real))
                 for g in fam.poset.elements)


def _assert_profile_passes(fam):
    assert check_all(fam).passed
    ranks = _profile(fam)
    for feasible in (trace_feasible, norm_feasible):
        assert feasible(fam.poset, fam.character, [ranks], fam.dimension)[0], \
            (feasible.__name__, fam.poset, fam.character, ranks)


def test_trace_identity_passes_every_built_family():
    built = 0
    for k in range(4, 21):
        chi = Character({g: 0.5 + 1.0 / k for g in QUAD.elements})
        for chain in predict(QUAD, chi, ("g1", "g2")).chains:
            for fam in build_from_chain(chain):
                _assert_profile_passes(fam)
                built += 1
    # the criterion-4 recipes: a diamond or an a6 part against a pair or an a4 part
    eps = 0.0131
    a = 0.5 + eps
    diamond = Poset(("g1", "g2", "g5"), (("g1", "g5"), ("g2", "g5")))
    pair = Poset(("g3", "g4"), ())
    a4 = Poset(("g3", "g4", "g6"), (("g3", "g6"), ("g4", "g6")))
    a6 = Poset(("g1", "g2", "g5", "g6"), (("g1", "g5"), ("g2", "g5"), ("g5", "g6")))
    ends = {"g1": a, "g2": a, "g3": a, "g4": a}
    cases = [(a6, pair, dict(ends, g5=eps / 2, g6=1 / 3 - 7 * eps / 3))]
    for m in (1, 2):
        for a5 in (1 / (2 * m + 1) - 2 * eps,
                   1 / (4 * m + 2) - (4 * m + 3) * eps / (2 * m + 1),
                   1 / (4 * m) - 2 * eps - eps / (2 * m), 1 / (2 * m) - 2 * eps):
            cases.append((diamond, pair, dict(ends, g5=a5)))
        cases.append((diamond, a4, dict(ends, g5=eps / 2, g6=1 / (2 * m) - 2.5 * eps)))
    for part1, part2, w in cases:
        chi = Character(w)
        ctx = ChainContext(part1, chi.restrict(part1.elements),
                           part2, chi.restrict(part2.elements))
        for chain in enumerate_irreducibles(ctx):
            for fam in build_from_chain(chain):
                _assert_profile_passes(fam)
                built += 1
    assert built == 32


def _norm_bounds_hold(p, chi, ranks, n):
    """The norm bounds by listing every subset: a T lighter than 1 leaves
    ranks of at least n outside it, and an S heavier than 1 has ranks of at
    most (|S| - 1) n inside it."""
    for inside in itertools.product((False, True), repeat=len(ranks)):
        weight = sum(chi[g] for g, b in zip(p.elements, inside) if b)
        rank_in = sum(r for r, b in zip(ranks, inside) if b)
        if weight < 1 - PROFILE_SLACK and sum(ranks) - rank_in < n:
            return False
        if weight > 1 + PROFILE_SLACK and rank_in > (sum(inside) - 1) * n:
            return False
    return True


def test_norm_bounds_match_subset_enumeration():
    rng = random.Random(18)
    cases = [(p, Character({g: rng.randint(1, grid) / grid for g in p.elements}), d)
             for k in range(1, 6) for p in generate_posets(k)
             for grid in (10, 8) for d in range(1, 6)]
    # 2,592 profiles, more than the 1,638 rows of one block at d = 20
    cases.append((QUAD, Character(dict(zip(QUAD.elements, (.5, .5, .5, .75)))), 20))
    kept = pruned = 0
    for p, chi, d in cases:
        profiles = rank_profiles(p, chi, d)
        want = [_norm_bounds_hold(p, chi, r, d) for r in profiles]
        assert norm_feasible(p, chi, profiles, d).tolist() == want, (p, chi, d)
        kept += sum(want)
        pruned += len(want) - sum(want)
    assert kept >= 1000 and pruned >= 3000, (kept, pruned)


def test_norm_bounds_keep_the_quad_at_two_thirds_balanced():
    # at d = 4 any two ranks sum to at most 4 and any three to at least 4
    chi = Character({g: 2 / 3 for g in QUAD.elements})
    profiles = rank_profiles(QUAD, chi, 4)
    kept = profiles[norm_feasible(QUAD, chi, profiles, 4)]
    assert len(kept) == 10
    assert set(map(tuple, kept.tolist())) == (set(itertools.permutations((2, 2, 2, 0)))
                         | set(itertools.permutations((2, 2, 1, 1))))
    assert norm_feasible(QUAD, chi, [], 4).shape == (0,)


def _twin_orbit(classes, ranks):
    """Every profile reached from ranks by permuting ranks within each class."""
    orbit = set()
    for perms in itertools.product(*map(itertools.permutations, classes)):
        moved = list(ranks)
        for c, perm in zip(classes, perms):
            for i, j in zip(c, perm):
                moved[j] = ranks[i]
        orbit.add(tuple(moved))
    return orbit


@pytest.mark.blas_bits
def test_twin_first_keeps_the_first_profile_of_each_orbit():
    cases = plain = dropped = mirrored = 0
    for k in range(1, 5):
        for p in generate_posets(k):
            els = p.elements
            for w in itertools.product((0.25, 0.5, 0.75), repeat=k):
                chi = Character(dict(zip(els, w)))
                # twins by pairwise checks: equal weights, and every third
                # element compares with both alike
                classes = {tuple(j for j, h in enumerate(els) if h == g or (
                    chi[g] == chi[h] and not p.less(g, h) and not p.less(h, g)
                    and all(p.less(x, g) == p.less(x, h) and p.less(g, x) == p.less(h, x)
                            for x in els if x not in (g, h))))
                    for g in els}
                # the grid's sums are exact, so no rounding enters here
                mirror = not p.relations and sum(w) == 2
                for d in (2, 3):
                    profiles = [tuple(r) for r in rank_profiles(p, chi, d).tolist()]
                    earlier, want = set(), []
                    for ranks in profiles:
                        twins = _twin_orbit(classes, ranks)
                        orbit = twins | (_twin_orbit(classes, tuple(d - r for r in ranks))
                                         if mirror else set())
                        want.append(orbit.isdisjoint(earlier))
                        mirrored += twins.isdisjoint(earlier) and not want[-1]
                        earlier.add(ranks)
                    got = orbit_first(p, chi, profiles, d).tolist()
                    assert got == want, (p, chi, d)
                    if len(classes) == k and not mirror:
                        assert all(got)
                        plain += 1
                    cases += 1
                    dropped += len(got) - sum(got)
    assert orbit_first(QUAD, POINT_SIX, [], 3).shape == (0,)
    assert cases == 2 * sum(3 ** k * len(generate_posets(k)) for k in range(1, 5))
    assert plain >= 100 and dropped >= 1000 and mirrored >= 1, (plain, dropped, mirrored)


@pytest.mark.blas_bits
def test_twin_swap_maps_a_family_onto_the_swapped_profile():
    cfg = dataclasses.replace(QUICK, dimension=3, rank_profile=(2, 1, 1, 1))
    fam = search_numeric(QUAD, POINT_SIX, cfg)
    assert _profile(fam) == (2, 1, 1, 1)
    # g1 and g4 are twins: swap their projections
    proj = fam.projections
    swapped = ProjectionFamily(QUAD, POINT_SIX, dict(proj, g1=proj["g4"], g4=proj["g1"]))
    report = check_all(swapped, ACCEPT_TOL)
    assert report.passed and report.irreducible
    assert _profile(swapped) == (1, 1, 1, 2)
    assert orbit_first(QUAD, POINT_SIX, [(2, 1, 1, 1), (1, 1, 1, 2)], 3).tolist() \
        == [True, False]


@pytest.mark.blas_bits
def test_complement_maps_a_family_onto_the_mirrored_profile():
    # at d = 1 the zero-cap quad has two profiles, and no twins relate them
    profiles = rank_profiles(QUAD, ZERO_CAP, 1).tolist()
    assert profiles == [[0, 0, 1, 1], [1, 1, 0, 0]]
    cfg = dataclasses.replace(QUICK, rank_profile=(0, 0, 1, 1))
    fam = search_numeric(QUAD, ZERO_CAP, cfg)
    assert _profile(fam) == (0, 0, 1, 1)
    mirrored = ProjectionFamily(QUAD, ZERO_CAP, {g: np.eye(1) - proj for g, proj
                                                 in fam.projections.items()})
    report = check_all(mirrored, ACCEPT_TOL)
    assert report.passed and report.irreducible
    assert _profile(mirrored) == (1, 1, 0, 0)
    assert orbit_first(QUAD, ZERO_CAP, profiles, 1).tolist() == [True, False]


@pytest.mark.blas_bits
def test_complement_orbit_needs_an_antichain_of_weight_two():
    profiles = [(0, 0, 1, 1), (1, 1, 0, 0)]
    # one relation: I - P reverses it
    related = Poset(QUAD.elements, [("g1", "g2")])
    assert orbit_first(related, ZERO_CAP, profiles, 1).tolist() == [True, True]
    # a total off 2 by 1e-9, inside PROFILE_SLACK but past rounding, or by 0.01
    for shift in (1e-9, -1e-9, 0.01):
        chi = Character(dict(ZERO_CAP.weights, g4=ZERO_CAP["g4"] + shift))
        assert orbit_first(QUAD, chi, profiles, 1).tolist() == [True, True], shift


def test_orbit_first_keeps_one_copy_of_a_repeated_profile():
    # distinct weights of total 1.1: no twins and no complement orbit
    chi = Character(dict(zip(QUAD.elements, (0.1, 0.2, 0.3, 0.5))))
    profiles = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    assert orbit_first(QUAD, chi, profiles, 1).tolist() == [True, True, False]


def test_orbit_first_keeps_the_first_row_of_each_name():
    # rows in no order and with repeats: a row is kept exactly when no
    # earlier row has its name, its ranks sorted within each class of
    # twins and, on an antichain of weight 2, the lesser of the names of
    # r and dimension - r
    rng = random.Random(7)
    chain_and_twins = Poset(QUAD.elements, [("g1", "g2")])
    halves = Character({g: 0.5 for g in QUAD.elements})
    cases = [(QUAD, halves, [[0, 1, 2, 3]], True),
             (QUAD, POINT_SIX, [[0, 1, 2, 3]], False),
             (QUAD, ZERO_CAP, [], True),
             (chain_and_twins, halves, [[2, 3]], False)]
    dropped = 0
    for p, chi, twins, mirror in cases:
        for d in (2, 3):
            rows = [tuple(rng.randint(0, d) for _ in range(4)) for _ in range(60)]

            def name(ranks):
                ranks = list(ranks)
                for c in twins:
                    for i, r in zip(c, sorted(ranks[i] for i in c)):
                        ranks[i] = r
                return tuple(ranks)

            seen, want = set(), []
            for ranks in rows:
                key = name(ranks)
                if mirror:
                    key = min(key, name(d - r for r in ranks))
                want.append(key not in seen)
                seen.add(key)
            assert orbit_first(p, chi, rows, d).tolist() == want, (p, chi, d)
            dropped += want.count(False)
    assert dropped >= 200, dropped


@pytest.mark.parametrize("a, b", [(0.3719, 0.6143), (0.7268, 0.4537)])
@pytest.mark.blas_bits
def test_lanes_search_one_complement_of_each_zero_cap_pair(a, b):
    # profiles (r, r, d - r, d - r) pair off as r <-> d - r; the first of
    # each pair is kept, and then the pair (0, 0, d, d) ~ (d, d, 0, 0)
    # goes, as its ranks are all 0 or d
    chi = Character({"g1": a, "g2": 1 - a, "g3": b, "g4": 1 - b})
    for d, orbits in ((3, 2), (4, 3), (5, 3), (6, 4)):
        listed, traced, normed, kept, lanes = oracle._lanes(
            QUAD, chi, SearchConfig(d, restarts=2))
        assert listed == traced == normed == d + 1 and kept == orbits
        assert [(pidx, ranks.tolist()) for pidx, ranks in lanes] == [
            (r, [r, r, d - r, d - r]) for r in range(1, orbits)]


def _all_zero_or_n(ranks, n):
    return bool(((np.asarray(ranks) == 0) | (np.asarray(ranks) == n)).all())


def test_lanes_drop_profiles_of_ranks_all_zero_or_n():
    # the profiles orbit_first keeps, less those whose ranks are all 0 or n;
    # on such a profile every P_g is 0 or I, a family that verifies yet is
    # reducible
    rng = random.Random(5)
    dropped = 0
    for k in range(1, 5):
        for p in generate_posets(k) * 2:
            d = rng.randint(2, 4)
            chi = _planted_character(rng, p, d)
            profiles = rank_profiles(p, chi, d)
            kept = np.flatnonzero(trace_feasible(p, chi, profiles, d))
            kept = kept[norm_feasible(p, chi, profiles[kept], d)]
            firsts = kept[orbit_first(p, chi, profiles[kept], d)]
            *_, orbits, lanes = oracle._lanes(p, chi, SearchConfig(d, restarts=1))
            assert orbits == len(firsts)
            assert [pidx for pidx, _ in lanes] == [
                pidx for pidx in firsts if not _all_zero_or_n(profiles[pidx], d)]
            for pidx in firsts:
                if _all_zero_or_n(profiles[pidx], d):
                    eye = np.eye(d, dtype=complex)
                    fam = ProjectionFamily(p, chi, {g: eye * (r == d) for g, r in
                                                    zip(p.elements, profiles[pidx])})
                    report = check_all(fam, ACCEPT_TOL)
                    assert report.passed and not report.irreducible
                    dropped += 1
    assert dropped >= 10, dropped


def test_lanes_keep_zero_one_profiles_at_dimension_one():
    # at n = 1 every profile is 0 or 1, and each is an irreducible family
    heavy = Character({"g1": 1.2, "g2": 0.4, "g3": 0.3, "g4": 0.3})
    *_, orbits, lanes = oracle._lanes(QUAD, heavy, SearchConfig(1, restarts=4))
    assert orbits == len(lanes) == 1
    fam = search_numeric(QUAD, heavy, SearchConfig(1, restarts=4))
    assert predict(QUAD, heavy, ["g1", "g2"]).scalar == [(0, 1, 1, 1)]
    assert _profile(fam) == (0, 1, 1, 1)


def _planted_character(rng, p, d):
    """Weights with an exact-trace monotone profile; half give unit up-sets."""
    ups = p.up_sets()
    if rng.random() < 0.5:
        unit = [g for g in p.elements if g in rng.choice([u for u in ups if u])]
        w = {g: rng.uniform(0.1, 1.5) for g in p.elements}
        total = sum(w[g] for g in unit)
        return Character({g: w[g] / total if g in unit else w[g] for g in p.elements})
    ranks = {g: sum(g in rng.choice(ups) for _ in range(d)) for g in p.elements}
    if not any(ranks.values()):
        ranks[p.elements[-1]] = d
    w = {g: rng.uniform(0.1, 1.0) for g in p.elements}
    scale = d / sum(w[g] * ranks[g] for g in p.elements)
    return Character({g: v * scale for g, v in w.items()})


def test_trace_identity_passes_every_searched_family():
    # every lane runs, refuted or not, so an unsound filter cannot hide a family
    rng = random.Random(11)
    found = refuted = pruned = 0
    for k in range(1, 5):
        for p in generate_posets(k) * 2:
            d = rng.randint(1, 4)
            chi = _planted_character(rng, p, d)
            cfg = SearchConfig(dimension=d, restarts=1, max_iterations=500, seed=k)
            profiles = rank_profiles(p, chi, d)
            refuted += int((~trace_feasible(p, chi, profiles, d)).sum())
            pruned += int((~norm_feasible(p, chi, profiles, d)).sum())
            for out in _run_lanes(p, chi, cfg, list(enumerate(profiles))):
                if out.report is not None and out.report.passed:
                    assert _profile(out.family) == tuple(profiles[out.pidx].tolist())
                    _assert_profile_passes(out.family)
                    found += 1
    assert found >= 20 and refuted >= 10 and pruned >= 10, (found, refuted, pruned)


def test_search_keeps_the_seed_of_each_surviving_lane():
    cfg = dataclasses.replace(QUICK, dimension=3)
    # the first outcome over the profiles that pass the trace identity
    lanes = _lanes(QUAD, POINT_SIX, cfg)
    want = next(filter(_passes, _run_lanes(QUAD, POINT_SIX, cfg, lanes)))
    # a refuted profile comes before it, so its seed's pidx is not its
    # place among the lanes
    assert want.pidx > [pidx for pidx, _ in lanes].index(want.pidx)
    got = search_numeric(QUAD, POINT_SIX, cfg)
    for g in QUAD.elements:
        assert np.array_equal(got.projections[g], want.family.projections[g])


def test_search_runs_only_the_given_rank_profile(monkeypatch):
    given = []
    run_lanes = oracle._run_lanes

    def recorded(p, chi, cfg, lanes, width=1):
        given.extend((pidx, tuple(ranks.tolist())) for pidx, ranks in lanes)
        return run_lanes(p, chi, cfg, lanes, width)

    monkeypatch.setattr(oracle, "_run_lanes", recorded)
    cfg = dataclasses.replace(QUICK, dimension=3)
    # the last of the four profiles the full search keeps at d = 3
    fam = search_numeric(QUAD, POINT_SIX, dataclasses.replace(cfg, rank_profile=(2, 1, 1, 1)))
    assert _profile(fam) == (2, 1, 1, 1)
    assert given == [(0, (2, 1, 1, 1))]
    given.clear()
    # refuted by the trace identity: no lane runs
    assert search_numeric(QUAD, POINT_SIX, dataclasses.replace(cfg, rank_profile=(0, 0, 2, 3))) \
        is None
    assert given == []
    with pytest.raises(OracleError, match="rank_profile has 3 entries for 4 elements"):
        search_numeric(QUAD, POINT_SIX, dataclasses.replace(cfg, rank_profile=(1, 1, 1)))


def test_lane_cap_decides_as_both_lane_bounds():
    # refused exactly when restarts x kept passes MAX_LANES or restarts x
    # kept x |G| n^3 passes MAX_LANE_WORK
    kept = np.arange(5000)
    for k, n, restarts in itertools.product(range(13), range(1, 40),
                                            (1, 2, 3, 4, 7, 64, 100, 5000)):
        bounds = ((restarts * kept > oracle.MAX_LANES)
                  | (restarts * kept * k * n ** 3 > oracle.MAX_LANE_WORK))
        assert (bounds == (kept > oracle._lane_cap(k, n, restarts))).all(), (k, n, restarts)


def test_lane_cap_refuses_one_profile_past_it():
    # quad weights 1 keep all 56 profiles at dimension 5: 73 x 56 = 4,088
    # lanes are searched, 74 x 56 = 4,144 are not
    unit = Character({g: 1.0 for g in QUAD.elements})
    assert oracle._lanes(QUAD, unit, SearchConfig(5, restarts=73))[2] == 56
    with pytest.raises(OracleError, match="dimension 5 keeps more than 55 rank profiles"):
        oracle._lanes(QUAD, unit, SearchConfig(5, restarts=74))


def test_lanes_filtered_in_blocks_match_one_pass():
    # six elements at 0.4, dimension 6: 7,872 profiles in blocks of 5,461
    # rows keep 3,982, under the cap of 4,096 at one restart
    els = ["g%d" % i for i in range(6)]
    p, chi = Poset(els), Character({g: 0.4 for g in els})
    profiles = rank_profiles(p, chi, 6)
    traced = np.flatnonzero(trace_feasible(p, chi, profiles, 6))
    kept = traced[norm_feasible(p, chi, profiles[traced], 6)]
    firsts = kept[orbit_first(p, chi, profiles[kept], 6)]
    listed, n_traced, n_kept, _, lanes = oracle._lanes(p, chi, SearchConfig(6, restarts=1))
    assert (listed, n_traced, n_kept) == (len(profiles), len(traced), len(kept)) \
        == (7872, 7072, 3982)
    assert [pidx for pidx, _ in lanes] == firsts.tolist()
    assert all((ranks == profiles[pidx]).all() for pidx, ranks in lanes)
    with pytest.raises(OracleError, match="keeps more than 2048 rank profiles"):
        oracle._lanes(p, chi, SearchConfig(6, restarts=2))


def test_search_refuses_the_eight_antichain_in_its_first_block():
    # all 398,567 profiles at dimension 6 pass both filters; the cap of 64
    # at 64 restarts is passed within the first block of 5,461 rows
    els = ["g%d" % i for i in range(8)]
    t0 = time.perf_counter()
    with pytest.raises(OracleError, match="dimension 6 keeps more than 64 rank profiles"):
        search_numeric(Poset(els), Character({g: 0.25 for g in els}), SearchConfig(6))
    assert time.perf_counter() - t0 < 0.8


EPS = 0.0131
A4_TWO_SIDED = Poset(["g1", "g2", "g5", "g3", "g4", "g6"],
                     [("g1", "g5"), ("g2", "g5"), ("g3", "g6"), ("g4", "g6")])
A6_FOUR_CHAIN = Poset(["g1", "g2", "g5", "g6", "g3", "g4"],
                      [("g1", "g5"), ("g2", "g5"), ("g5", "g6")])
ENDS = {g: 0.5 + EPS for g in ("g1", "g2", "g3", "g4")}
# (poset, character, dimension), mostly the searches of the oracle workloads
POOL_CASES = {
    "quad-d3": (QUAD, POINT_SIX, 3),
    "quad-sixth-d4": (QUAD, Character({g: 0.5 + 1 / 6 for g in QUAD.elements}), 4),
    "zero-cap-d5": (QUAD, ZERO_CAP, 5),
    "a4-two-sided-d3": (A4_TWO_SIDED, Character(
        dict(ENDS, g5=EPS / 2, g6=0.5 - 2.5 * EPS)), 3),
    "a6-four-chain-d4": (A6_FOUR_CHAIN, Character(
        dict(ENDS, g5=EPS / 2, g6=1 / 3 - 7 * EPS / 3)), 4),
    # the first irreducible family comes after more than LANE_POOL lanes
    "quad-half-d2": (QUAD, Character({g: 0.5 for g in QUAD.elements}), 2),
    # g1 is squeezed by g2, then by g3, which g4 squeezes first
    "fork-d3": (Poset(["g1", "g2", "g3", "g4", "g5"],
                      [("g1", "g2"), ("g1", "g3"), ("g3", "g4")]),
                Character({"g1": 0.1, "g2": 0.1, "g3": 0.2, "g4": 0.6,
                           "g5": 0.3}), 3),
}


def _random_projection(rng, n, rank):
    """One element's start as the one-lane loop drew it: its own two
    Gaussian draws, its own QR and its own product."""
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    if rank == n:
        return np.eye(n, dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(z)[0][:, :rank]
    return q @ q.conj().T


@pytest.mark.blas_bits
def test_stacked_start_matches_the_per_element_start():
    # one draw and one stacked QR over the elements of rank strictly
    # between 0 and n give each element the bits of its own draws and QR
    cases = 0
    for n in range(1, 9):
        for ranks in itertools.product(range(n + 1), repeat=3):
            rng = np.random.default_rng([n, *ranks])
            want = np.stack([_random_projection(rng, n, r) for r in ranks])
            got = _start(np.random.default_rng([n, *ranks]), n, np.array(ranks))
            assert got.tobytes() == want.tobytes(), (n, ranks)
            cases += 1
    assert cases == sum((n + 1) ** 3 for n in range(1, 9)) == 2024


def _reference_lane(p, chi, ranks, rng, cfg):
    """One lane by the one-lane loop that the pooled engine replaced.

    Returns (exit, projections or None). Elements are rounded one by one,
    minimal elements first, so each is squeezed by still unrounded parents.
    """
    els = p.elements
    n = cfg.dimension
    index = {g: i for i, g in enumerate(els)}
    alpha = np.array([chi[g] for g in els])
    scale = (alpha / sum(a * a for a in alpha))[:, None, None]
    alpha = alpha[:, None, None]
    eye = np.eye(n, dtype=complex)
    parents = [[index[h] for h in sorted(h for gg, h in p.hasse if gg == g)]
               for g in els]
    order = sorted(range(len(els)), key=lambda i: -len(p.up_set(els[i])))
    lo, hi = np.array([(i, i) for i in range(len(els))]
                      + [(index[g], index[h]) for g, h in p.relations]).T

    def round_rank(m, rank):
        if rank == 0:
            return np.zeros((n, n), dtype=complex)
        if rank == n:
            return eye
        v = np.linalg.eigh((m + m.conj().T) / 2.0)[1][:, n - rank:]
        return v @ v.conj().T

    def sweep(x):
        m = x.view(complex).reshape(len(els), n, n)
        proj = (m + m.conj().transpose(0, 2, 1)) / 2.0
        out = proj - scale * ((alpha * proj).sum(axis=0) - eye)
        for i in order:
            m = out[i]
            for h in parents[i]:
                m = out[h] @ m @ out[h]
            out[i] = round_rank(m, ranks[i])
        return out, max(np.abs((alpha * out).sum(axis=0) - eye).max(),
                        np.abs(out[lo] @ out[hi] - out[lo]).max())

    x = np.stack([_random_projection(rng, n, r) for r in ranks]).ravel().view(float)
    steps_x, steps_f, x_prev, f_prev = [], [], None, None
    prev_window = np.inf
    kept = None
    for it in range(cfg.max_iterations):
        swept, res = kept if kept is not None else sweep(x)
        kept = None
        if res <= ACCEPT_TOL:
            return "accepted", swept
        image = swept.ravel().view(float)
        f = image - x
        if np.abs(f).max() < cfg.step_tol:
            return "step_tol", None
        if (it + 1) % STALL_WINDOW == 0:
            if res > STALL_FACTOR * prev_window:
                return "stall", None
            prev_window = res
        if f_prev is not None:
            steps_x.append(x - x_prev)
            steps_f.append(f - f_prev)
            if len(steps_x) > ANDERSON_MEMORY:
                steps_x.pop(0)
                steps_f.pop(0)
        x_prev, f_prev = x, f
        if steps_f:
            basis = np.stack(steps_f, axis=1)
            gamma = np.linalg.lstsq(basis, f, rcond=None)[0]
            candidate = image - (np.stack(steps_x, axis=1) + basis) @ gamma
            trial = sweep(candidate)
            if trial[1] < res:
                x, kept = candidate, trial
                continue
            steps_x, steps_f, x_prev, f_prev = [], [], None, None
        x = image
    return "max_iterations", None


def _lanes(p, chi, cfg):
    """(pidx, ranks) of every profile that passes the trace identity; a
    search with none would leave the tests that compare lanes nothing to
    compare."""
    profiles = rank_profiles(p, chi, cfg.dimension)
    lanes = [(pidx, profiles[pidx]) for pidx in
             np.flatnonzero(trace_feasible(p, chi, profiles, cfg.dimension))]
    assert lanes, "the search starts no lane"
    return lanes


def _passes(out):
    return out.report is not None and out.report.passed and out.report.irreducible


def _bits(p, fam):
    return None if fam is None else np.stack([fam.projections[g] for g in p.elements]).tobytes()


@pytest.mark.blas_bits
def test_pooled_lanes_match_the_one_lane_loop():
    exits = collections.Counter()
    longest = 0
    for p, chi, d in POOL_CASES.values():
        for iterations in (2000, 60):
            cfg = SearchConfig(dimension=d, restarts=2, max_iterations=iterations)
            lanes = _lanes(p, chi, cfg)
            profiles = dict(lanes)
            pooled = list(_run_lanes(p, chi, cfg, lanes))
            assert [(out.restart, out.pidx) for out in pooled] == [
                (restart, pidx) for restart in range(cfg.restarts) for pidx, _ in lanes]
            for out in pooled:
                rng = np.random.default_rng([cfg.seed, out.pidx, out.restart])
                want_exit, want = _reference_lane(p, chi, profiles[out.pidx], rng, cfg)
                assert out.exit == want_exit
                assert (out.family is None) == (want is None)
                for i, g in enumerate(p.elements if out.family else ()):
                    assert np.array_equal(out.family.projections[g], want[i])
                exits[out.exit] += 1
            longest = max(longest, len(pooled))
    assert set(exits) == {"accepted", "step_tol", "stall", "max_iterations"}
    assert longest > LANE_POOL


@pytest.mark.blas_bits
def test_lanes_match_the_one_lane_loop_at_dimension_16():
    # the pooled residual leaves out |P P - P|, which the reference keeps:
    # every matrix a sweep rounds is 0, I or V V* with V orthonormal, so
    # that term stays at rounding level and decides nothing
    cfg = SearchConfig(dimension=16, restarts=2, rank_profile=(8, 8, 8, 8))
    lanes = oracle._lanes(QUAD, ZERO_CAP, cfg)[-1]
    pooled = list(_run_lanes(QUAD, ZERO_CAP, cfg, lanes))
    assert len(pooled) == 2
    for out in pooled:
        rng = np.random.default_rng([cfg.seed, out.pidx, out.restart])
        want_exit, want = _reference_lane(QUAD, ZERO_CAP, (8, 8, 8, 8), rng, cfg)
        assert out.exit == want_exit == "accepted"
        for i, g in enumerate(QUAD.elements):
            proj = out.family.projections[g]
            assert np.array_equal(proj, want[i])
            assert np.abs(proj @ proj - proj).max() < 1e-13


def _lane_answers(p, outcomes):
    """((pidx, restart), (exit, bytes of the projections or None)) of every
    outcome, in scan order."""
    return [((out.pidx, out.restart), (out.exit, _bits(p, out.family))) for out in outcomes]


def _pool_config(case, **kw):
    return SearchConfig(dimension=POOL_CASES[case][2], restarts=2, **kw)


@pytest.fixture(scope="module")
def lane_stream():
    """lane_stream(case, cfg, width) iterates over the outcomes of _run_lanes
    over _lanes of POOL_CASES[case] at LANE_POOL = width. Each stream runs
    once per module, as far as its readers read it."""
    read, rest = {}, {}

    def stream(case, cfg, width=LANE_POOL):
        key = (case, cfg, width)
        if key not in read:
            p, chi, _ = POOL_CASES[case]
            read[key], rest[key] = [], _run_lanes(p, chi, cfg, _lanes(p, chi, cfg))
        outcomes = read[key]
        for i in itertools.count():
            if i == len(outcomes):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(oracle, "LANE_POOL", width)
                    out = next(rest[key], None)
                if out is None:
                    return
                outcomes.append(out)
            yield outcomes[i]

    return stream


@pytest.mark.blas_bits
def test_pool_size_does_not_change_answers(lane_stream):
    want = {case: _lane_answers(POOL_CASES[case][0], lane_stream(case, _pool_config(case)))
            for case in POOL_CASES}
    assert max(map(len, want.values())) > LANE_POOL
    for pool in (1, 3):
        for case, answers in want.items():
            got = lane_stream(case, _pool_config(case), pool)
            assert _lane_answers(POOL_CASES[case][0], got) == answers, pool


@pytest.mark.blas_bits
def test_twin_first_keeps_the_bits_of_every_kept_lane(monkeypatch, lane_stream):
    # kept: the lanes search_numeric lists, each run to its end; every: the
    # lanes it lists without the orbit filter, read from the stream over all
    # the lanes that pass the trace identity
    kept = {}
    for case, (p, chi, _) in POOL_CASES.items():
        cfg = _pool_config(case)
        lanes = oracle._lanes(p, chi, cfg)[-1]
        assert lanes, "the search starts no lane"
        kept[case] = dict(_lane_answers(p, _run_lanes(p, chi, cfg, lanes)))
    monkeypatch.setattr(oracle, "orbit_first",
                        lambda p, chi, profiles, dimension: np.ones(len(profiles), dtype=bool))
    dropped = 0
    for case, lanes in kept.items():
        p, chi, _ = POOL_CASES[case]
        cfg = _pool_config(case)
        answers = dict(_lane_answers(p, lane_stream(case, cfg)))
        every = {(pidx, restart): answers[pidx, restart] for restart in range(cfg.restarts)
                 for pidx, _ in oracle._lanes(p, chi, cfg)[-1]}
        assert lanes.items() <= every.items(), case
        dropped += len(every) - len(lanes)
    assert dropped >= 20, dropped


def _serial_search(lane_stream, case, cfg):
    """(family, lanes scanned) of the first outcome that passes, in a pool
    of one lane at a time."""
    scanned = 0
    for scanned, out in enumerate(lane_stream(case, cfg, 1), 1):
        if _passes(out):
            return out.family, scanned
    return None, scanned


@pytest.mark.parametrize("case", sorted(POOL_CASES))
@pytest.mark.blas_bits
def test_search_matches_a_serial_scan(lane_stream, case):
    p, chi, d = POOL_CASES[case]
    for iterations in (2000, 60):
        cfg = SearchConfig(dimension=d, restarts=2, max_iterations=iterations)
        want, _ = _serial_search(lane_stream, case, cfg)
        got = search_numeric(p, chi, cfg)
        assert (got is None) == (want is None), iterations
        for g in p.elements if got else ():
            assert np.array_equal(got.projections[g], want.projections[g])


@pytest.mark.blas_bits
def test_search_takes_a_winner_past_a_full_pool(lane_stream):
    p, chi, _ = POOL_CASES["quad-half-d2"]
    cfg = _pool_config("quad-half-d2")
    want, scanned = _serial_search(lane_stream, "quad-half-d2", cfg)
    assert scanned > LANE_POOL and commutant_dim(want) == 1
    got = search_numeric(p, chi, cfg)
    for g in p.elements:
        assert np.array_equal(got.projections[g], want.projections[g])


@pytest.fixture
def live_lanes(monkeypatch):
    """The number of live lanes each time _run_lanes starts one."""
    counts, live = [], [0]
    lane = oracle._lane

    def counted(cfg, start):
        live[0] += 1
        counts.append(live[0])
        try:
            return (yield from lane(cfg, start))
        finally:
            live[0] -= 1

    monkeypatch.setattr(oracle, "_lane", counted)
    return counts


@pytest.mark.blas_bits
def test_search_won_by_its_first_lane_starts_one_lane(live_lanes):
    chi = Character({g: 0.5 + 1 / 6 for g in QUAD.elements})
    fam = search_numeric(QUAD, chi, SearchConfig(dimension=2))
    report = check_all(fam, ACCEPT_TOL)
    assert report.passed and report.irreducible
    assert live_lanes == [1]


@pytest.mark.blas_bits
def test_exhaustive_search_widens_to_the_full_pool(live_lanes):
    p, chi, d = POOL_CASES["zero-cap-d5"]
    # 2 of the 6 profiles are searched, so 12 lanes at 6 restarts
    assert search_numeric(p, chi, SearchConfig(dimension=d, restarts=6)) is None
    # lane 0 runs alone; passing it by admits lanes 1 and 2; lane 3 takes
    # the place of lane 2, which ends first; passing lanes 1 and 2 by
    # doubles the pool twice, to its full width
    assert live_lanes[:5] == [1, 1, 2, 2, 2]
    assert max(live_lanes) == LANE_POOL


@pytest.mark.blas_bits
def test_cross_validate_starts_a_refuted_search_at_the_full_pool(live_lanes):
    # the theory refutes the zero-cap quad at d = 5: every lane is read,
    # so the full pool starts before any lane ends
    cv = cross_validate_split(QUAD, ZERO_CAP, ["g1", "g2"], [5], QUICK)
    assert [(r["theory"], r["oracle"]) for r in cv.rows] == [(False, False)]
    assert live_lanes[:LANE_POOL] == list(range(1, LANE_POOL + 1))
    live_lanes.clear()
    # predicted at d = 2 and won by the first lane, which runs alone
    cv = cross_validate_split(QUAD, Character({g: 0.5 + 1 / 6 for g in QUAD.elements}),
                              ["g1", "g2"], [2], QUICK)
    assert [(r["theory"], r["oracle"]) for r in cv.rows] == [(True, True)]
    assert live_lanes == [1]


def _read_lanes(monkeypatch, flip):
    """Rows of two cross-validations, and (pidx, restart, exit, bytes of
    the projections or None) of every lane they read, with the hint that
    sets the pool's starting width as given or flipped."""
    read = []
    run_lanes, search = oracle._run_lanes, oracle.search_numeric

    def recorded(p, chi, cfg, lanes, width=1):
        for out in run_lanes(p, chi, cfg, lanes, width):
            read.append((out.pidx, out.restart, out.exit, _bits(p, out.family)))
            yield out

    def hinted(p, chi, cfg, listing=None, expected=True):
        return search(p, chi, cfg, listing, expected != flip)

    monkeypatch.setattr(oracle, "_run_lanes", recorded)
    monkeypatch.setattr(oracle, "search_numeric", hinted)
    rows = [cross_validate_split(QUAD, ZERO_CAP, ["g1", "g2"], range(2, 7), QUICK).rows,
            cross_validate_split(QUAD, Character({g: 0.5 + 1 / 6 for g in QUAD.elements}),
                                 ["g1", "g2"], [1, 2, 3], QUICK).rows]
    monkeypatch.undo()
    return rows, read


@pytest.mark.blas_bits
def test_pool_hint_changes_no_row_and_no_lane(monkeypatch):
    rows, read = _read_lanes(monkeypatch, flip=False)
    assert _read_lanes(monkeypatch, flip=True) == (rows, read)
    assert len(read) > 2 * LANE_POOL


@pytest.mark.blas_bits
def test_pool_doubles_so_a_search_won_by_its_second_lane_starts_three(live_lanes):
    p, chi, d = POOL_CASES["a6-four-chain-d4"]
    fam = search_numeric(p, chi, SearchConfig(dimension=d, restarts=4))
    report = check_all(fam, ACCEPT_TOL)
    assert report.passed and report.irreducible
    # lane 0 alone, then lanes 1 and 2 in a pool of 2; lane 1 wins, so no
    # later lane starts
    assert live_lanes == [1, 1, 2]


@pytest.mark.blas_bits
def test_check_all_runs_only_on_the_lanes_read(monkeypatch):
    checked, built, read = [], [], []
    check, family, run_lanes = oracle.check_all, oracle.ProjectionFamily, oracle._run_lanes

    def counted_check(fam, tol):
        checked.append(fam)
        return check(fam, tol)

    def counted_family(*args):
        # every accepted lane builds its family, read or not
        built.append(args)
        return family(*args)

    def recorded(*args):
        for out in run_lanes(*args):
            read.append(out)
            yield out

    monkeypatch.setattr(oracle, "check_all", counted_check)
    monkeypatch.setattr(oracle, "ProjectionFamily", counted_family)
    monkeypatch.setattr(oracle, "_run_lanes", recorded)
    # the full pool of 8 starts at once, and the first lane read wins
    for seed in (0, 1):
        checked.clear()
        cfg = SearchConfig(3, restarts=8, seed=seed)
        assert search_numeric(QUAD, POINT_SIX, cfg, expected=False) is not None
        assert len(checked) == 1
    p, chi, d = POOL_CASES["a6-four-chain-d4"]
    for expected in (True, False):
        checked.clear()
        read.clear()
        assert search_numeric(p, chi, SearchConfig(d, restarts=4), expected=expected)
        assert len(checked) == sum(out.exit == "accepted" for out in read)
    # the four searches read one accepted lane each, and more were accepted
    assert len(built) > 4


def _equivalent(f, g):
    """Whether irreducible f and g of one dimension are unitarily
    equivalent: f (+) g then has commutant M_2, of dimension 4, not 2."""
    z = np.zeros((f.dimension, f.dimension))
    return commutant_dim(ProjectionFamily(f.poset, f.character, {
        e: np.block([[f.projections[e], z], [z, g.projections[e]]])
        for e in f.poset.elements})) == 4


def _classes(families):
    """The first family of each unitary equivalence class."""
    kept = []
    for f in families:
        if not any(_equivalent(f, g) for g in kept):
            kept.append(f)
    return kept


MISSED_IN_DELTA2 = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="chains with both ends discrete "
    "in Delta2 are not enumerated (ROADMAP item 1)")


@pytest.mark.parametrize("weights, d, classes", [
    ((0.6, 0.6, 0.6, 0.6), 3, 4),
    ((0.6, 0.6, 0.8, 0.5), 3, 1),
    pytest.param((0.5 + 1 / 6,) * 4, 2, 2, marks=MISSED_IN_DELTA2),
    pytest.param((0.5 + 1 / 14,) * 4, 4, 2, marks=MISSED_IN_DELTA2),
    pytest.param((0.6, 0.6, 0.8, 0.5), 2, 0, marks=MISSED_IN_DELTA2),
])
def test_census_finds_no_class_the_theory_misses(weights, d, classes):
    chi = Character(dict(zip(QUAD.elements, weights)))
    built = _classes([fam for ch in predict(QUAD, chi, ["g1", "g2"]).chains
                      if ch.dimension == d for fam in build_from_chain(ch)])
    assert len(built) == classes
    # every lane on every profile that passes both bounds: orbit_first
    # would keep one profile of each orbit, and so one class of several
    profiles = rank_profiles(QUAD, chi, d)
    kept = np.flatnonzero(trace_feasible(QUAD, chi, profiles, d))
    kept = kept[norm_feasible(QUAD, chi, profiles[kept], d)]
    cfg = SearchConfig(d, restarts=2, max_iterations=2000, seed=0)
    found = _classes([out.family for out in _run_lanes(
        QUAD, chi, cfg, [(pidx, profiles[pidx]) for pidx in kept], LANE_POOL) if _passes(out)])
    assert found
    assert [f for f in found if not any(_equivalent(f, g) for g in built)] == []


def _summands(fam):
    """fam split by the components of its coupling graph in the eigenbasis
    V of A = sum c_g P_g, c_g commutant_dim's generic weights: i and j are
    joined where some |B_g[i, j]| > 1e-6, B_g = V* P_g V, and each summand
    holds the B_g restricted to one component."""
    els = fam.poset.elements
    c = [math.modf(i * GOLDEN_FRACTION)[0] for i in range(1, len(els) + 1)]
    v = np.linalg.eigh(sum(ci * fam.projections[g] for ci, g in zip(c, els)))[1]
    b = {g: v.conj().T @ fam.projections[g] @ v for g in els}
    joined = np.max([np.abs(m) for m in b.values()], axis=0) > 1e-6
    components, left = [], set(range(fam.dimension))
    while left:
        component, front = set(), {min(left)}
        while front:
            component |= front
            front = {j for i in front for j in np.flatnonzero(joined[i]).tolist()} - component
        left -= component
        components.append(sorted(component))
    return [ProjectionFamily(fam.poset, fam.character,
                             {g: m[np.ix_(part, part)] for g, m in b.items()})
            for part in components]


@MISSED_IN_DELTA2
def test_every_summand_of_a_reducible_find_is_a_class_the_theory_builds():
    # oracle-refute's first request, every lane on every profile past both
    # bounds and the all-0-or-n rule at 1 restart: every lane is accepted
    # at a reducible family, and each summand of one that splits is a
    # blind sample of the irreducibles; a family F (+) F, whose eigenvalues
    # of A cluster, may stay whole and is left out
    chi = Character(dict.fromkeys(QUAD.elements, 0.5 + 1 / 6))
    d = 4
    profiles = rank_profiles(QUAD, chi, d)
    kept = np.flatnonzero(trace_feasible(QUAD, chi, profiles, d))
    kept = kept[norm_feasible(QUAD, chi, profiles[kept], d)]
    lanes = [(pidx, profiles[pidx]) for pidx in kept.tolist()
             if not _all_zero_or_n(profiles[pidx], d)]
    cfg = SearchConfig(d, restarts=1, max_iterations=2000, seed=0)
    outs = list(_run_lanes(QUAD, chi, cfg, lanes, LANE_POOL))
    assert len(outs) == 10
    assert all(out.report.passed and not out.report.irreducible for out in outs)
    summands = [part for out in outs for parts in [_summands(out.family)]
                if len(parts) > 1 for part in parts]
    assert summands
    built = [fam for ch in predict(QUAD, chi, ["g1", "g2"]).chains
             for fam in build_from_chain(ch)]
    assert [part for part in summands if not any(
        fam.dimension == part.dimension and _equivalent(part, fam) for fam in built)] == []


def _solve_families(p, chi, split):
    """The irreducible families solve builds: each 0/1 solution as a 1x1
    family and every chain's families, with P_g = 0 for each element a
    chain family leaves out."""
    try:
        pred = predict(p, chi, split)
    except NoRepresentation:
        return []
    chi = pred.character
    fams = [ProjectionFamily(p, chi, {g: np.eye(1) * b for g, b in zip(p.elements, bits)})
            for bits in pred.scalar]
    fams += [_on_input(fam, p, chi) for ch in pred.chains for fam in build_from_chain(ch)]
    return [fam for fam in fams if commutant_dim(fam) == 1]


def _dual_mismatch(p, weights, split):
    """Whether dualize maps the families of (p, alpha, split) onto those of
    (dual(p), alpha / (total - 1), split) other than one for one, up to
    unitary equivalence."""
    chi = Character(weights)
    dual_chi = Character({g: w / (chi.total - 1.0) for g, w in chi.weights.items()})
    left = _solve_families(dual(p), dual_chi, split)
    for fam in map(dualize, _solve_families(p, chi, split)):
        match = next((i for i, g in enumerate(left)
                      if g.dimension == fam.dimension and _equivalent(fam, g)), None)
        if match is None:
            return True
        del left[match]
    return bool(left)


# the dual side of each lacks a dimension-2 family
DUAL_MISSES = [
    (Poset(["e0", "e1", "e2", "e3"], []),
     {"e0": 0.875, "e1": 0.875, "e2": 1.25, "e3": 0.25}, ("e0", "e3")),
    (Poset(["e0", "e1", "e2", "e3", "e4"], [("e0", "e1"), ("e0", "e2")]),
     {"e0": 0.7, "e1": 0.9, "e2": 0.4, "e3": 1.3, "e4": 0.7}, ("e0", "e1", "e2")),
]


@pytest.mark.parametrize("p, weights, split", [
    pytest.param(*case, marks=MISSED_IN_DELTA2) for case in DUAL_MISSES])
def test_dualize_matches_the_families_of_the_dual_input(p, weights, split):
    assert not _dual_mismatch(p, weights, split)


def test_dualize_matches_the_dual_families_over_the_shape_sweep():
    # every input of shape_sweep whose weights total more than 1; its
    # chains reach dimension 3
    inputs, mismatched = 0, []
    for p, weights, split in shape_sweep(random.Random(7)):
        if Character(weights).total <= 1.0 + DEFAULT_TOL:
            continue
        inputs += 1
        if _dual_mismatch(p, weights, split):
            mismatched.append((p, weights, split))
    assert inputs == 1077
    assert [case for case in mismatched if case not in DUAL_MISSES] == []


def _in_series(fam, p, chi, split):
    """Whether fam lies in the continuous series of (p, chi, split): its
    layer-one spectrum over split is a reflection pair inside Delta_1."""
    try:
        pred = predict(p, chi, split)
    except NoRepresentation:
        return False
    if pred.two_point is None or pred.two_point.c_interval is None:
        return False
    return _spectrum_matched(pred, np.sort(np.linalg.eigvalsh(fam.weighted_sum(split))), [])


def _split_mismatch(p, weights, splits):
    """Whether some two splits of p give families that do not match one for
    one up to unitary equivalence, and how many families matched only by
    lying in the other split's continuous series."""
    chi = Character(weights)
    by_split = [(split, _solve_families(p, chi, split)) for split in splits]
    in_series = 0
    for (a, fams), (b, left) in itertools.combinations(by_split, 2):
        left, unmatched = list(left), []
        for fam in fams:
            match = next((i for i, g in enumerate(left)
                          if g.dimension == fam.dimension and _equivalent(fam, g)), None)
            if match is None:
                unmatched.append((fam, b))
            else:
                del left[match]
        for fam, other in unmatched + [(g, a) for g in left]:
            if not _in_series(fam, p, chi, other):
                return True, in_series
            in_series += 1
    return False, in_series


def _splits_up_to_complement(p):
    splits = []
    for split in valid_splits(p):
        if tuple(g for g in p.elements if g not in split) not in splits:
            splits.append(split)
    return splits


ANTICHAIN3 = Poset(["e0", "e1", "e2"], [])
ANTICHAIN4 = Poset(["e0", "e1", "e2", "e3"], [])

# in each, one split finds a dimension-2 family that another split misses
SPLIT_MISSES = [(0.625, 0.375, 0.125, 0.75), (0.25, 0.25, 0.25, 0.625),
                (0.6, 0.2, 0.5, 0.5), (0.2, 0.4, 0.5, 0.4)]


@pytest.mark.parametrize("weights", [
    pytest.param(weights, marks=MISSED_IN_DELTA2) for weights in SPLIT_MISSES])
def test_every_split_of_the_antichain_gives_its_families(weights):
    weights = dict(zip(ANTICHAIN4.elements, weights))
    assert not _split_mismatch(ANTICHAIN4, weights, _splits_up_to_complement(ANTICHAIN4))[0]


def test_discrete_families_of_one_split_lie_in_the_others_continuous_series():
    # total 2: each split's discrete two-point families are in the other
    # splits' continuous series, and nothing else is left unmatched
    weights = dict(zip(ANTICHAIN4.elements, (0.625, 0.875, 0.25, 0.25)))
    mismatched, in_series = _split_mismatch(
        ANTICHAIN4, weights, _splits_up_to_complement(ANTICHAIN4))
    assert not mismatched and in_series > 0


def test_every_valid_split_gives_the_same_families():
    # on 3 to 6 points only the antichains on 3 and 4 have two splits
    shapes = [(p, splits) for n in range(3, 7) for p in generate_posets(n)
              for splits in [_splits_up_to_complement(p)] if len(splits) > 1]
    assert [p for p, _ in shapes] == [ANTICHAIN3, ANTICHAIN4]
    rng = random.Random(3)
    inputs, mismatched = 0, []
    for p, splits in shapes:
        for den in (10, 8) * 100:
            weights = {g: rng.randrange(1, 3 * den // 2 + 1) / den for g in p.elements}
            inputs += 1
            if _split_mismatch(p, weights, splits)[0]:
                mismatched.append(tuple(weights.values()))
    assert inputs == 400
    assert [w for w in mismatched if w not in SPLIT_MISSES] == []


def test_search_logs_one_debug_line(caplog):
    cfg = dataclasses.replace(QUICK, dimension=3)
    with caplog.at_level(logging.DEBUG, logger="orthoposet.oracle"):
        search_numeric(QUAD, POINT_SIX, cfg)
    assert [r.getMessage() for r in caplog.records] == [
        "search d=3: 40 profiles listed, 24 refuted by the trace identity, "
        "12 by the norm bounds, 3 by symmetry, 0 as all 0 or n, pool of 1 at "
        "first, 1 lanes started, 1 lanes run (1 accepted, 0 step_tol, 0 stall, "
        "0 max_iterations), found=True"]
    caplog.clear()
    # the zero-cap quad at d = 5, refuted by the theory: (0, 0, 5, 5) goes
    # as all 0 or n, and its complement (5, 5, 0, 0) by symmetry
    with caplog.at_level(logging.DEBUG, logger="orthoposet.oracle"):
        cross_validate_split(QUAD, ZERO_CAP, ["g1", "g2"], [5], QUICK)
    assert [r.getMessage() for r in caplog.records] == [
        "search d=5: 6 profiles listed, 0 refuted by the trace identity, "
        "0 by the norm bounds, 3 by symmetry, 1 as all 0 or n, pool of 8 at "
        "first, 8 lanes started, 8 lanes run (8 accepted, 0 step_tol, 0 stall, "
        "0 max_iterations), found=False"]


def test_search_finds_the_three_point_family():
    fam = search_numeric(QUAD, POINT_SIX, dataclasses.replace(QUICK, dimension=3))
    assert fam is not None
    report = check_all(fam)
    assert report.passed and report.irreducible
    eigs = np.sort(np.linalg.eigvalsh(fam.weighted_sum(("g1", "g2"))))
    assert np.allclose(eigs, [0.0, 0.4, 0.8], atol=1e-8)


def test_search_is_deterministic():
    cfg = dataclasses.replace(QUICK, dimension=3)
    first = search_numeric(QUAD, POINT_SIX, cfg)
    second = search_numeric(QUAD, POINT_SIX, cfg)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_search_reports_absence():
    assert search_numeric(QUAD, POINT_SIX, dataclasses.replace(QUICK, dimension=2)) is None
    # the empty poset has no profile, and its |G| n^3 is 0
    assert search_numeric(Poset([]), Character({}), SearchConfig(1)) is None


def test_search_rejects_incomplete_character():
    with pytest.raises(SpectrumError, match="missing weight for 'g2'"):
        search_numeric(QUAD, Character({"g1": 0.6}), QUICK)


def test_search_finds_continuous_series_member():
    half = Character({g: 0.5 for g in QUAD.elements})
    fam = search_numeric(QUAD, half, dataclasses.replace(QUICK, dimension=2))
    assert fam is not None
    assert commutant_dim(fam) == 1
    layer = np.sort(np.linalg.eigvalsh(fam.weighted_sum(("g1", "g2"))))
    assert abs(layer.sum() - 1.0) < 1e-8  # reflection pair about sigma/2


def test_cross_validate_three_dimensions():
    cv = cross_validate(Poset(["g1", "g2"], []), POINT_SIX.restrict(("g1", "g2")),
                        Poset(["g3", "g4"], []), POINT_SIX.restrict(("g3", "g4")),
                        (1, 2, 3), QUICK)
    assert cv.agree
    by_dim = {r["dimension"]: r for r in cv.rows}
    assert not by_dim[1]["theory"] and not by_dim[1]["oracle"]
    assert not by_dim[2]["theory"]
    assert by_dim[3]["theory"] and by_dim[3]["oracle"]
    assert by_dim[3]["spectrum_matched"]
    doc = json.loads(json.dumps(cv.to_dict()))
    assert doc["agree"] is True and len(doc["rows"]) == 3


def test_cross_validate_names_a_missing_weight():
    # a ValueError subclass (exit 2 from the CLI), not a KeyError
    with pytest.raises(ValueError, match="missing weight for 'g4'"):
        cross_validate(Poset(["g1", "g2"], []), POINT_SIX.restrict(("g1", "g2")),
                       Poset(["g3", "g4"], []), Character({"g3": 0.6}), (1,), QUICK)


# g1, g2 < g5, with g5 listed third: the element order steers the search,
# and in this order it reaches the near-reducible candidates below
BELOW_G5 = Poset(["g1", "g2", "g5", "g3", "g4"], [("g1", "g5"), ("g2", "g5")])


@pytest.mark.parametrize("p, weights, split", [
    (QUAD, (0.2, 0.3, 0.8, 0.5), ["g1", "g2"]),
    (QUAD, (0.8, 0.3, 0.2, 0.5), ["g1", "g2"]),
    (BELOW_G5, (0.7, 0.3, 0.3, 0.5, 0.2), ["g1", "g2", "g5"]),
    (BELOW_G5, (0.7, 0.1, 0.4, 0.6, 0.5), ["g1", "g2", "g5"]),
])
def test_cross_validate_refuses_near_reducible_candidates(p, weights, split):
    # at d = 2 the search reaches families within about 1e-5 of a reducible
    # one, at axiom residuals of 7e-12 to 8e-11; the commutant counts a
    # coupling that small against such a residual as none, so the theory's
    # "no family" stands
    cfg = SearchConfig(2, restarts=8, max_iterations=2000, seed=0)
    cv = cross_validate_split(p, Character(dict(zip(p.elements, weights))),
                              split, [2], cfg)
    assert all(row["agree"] for row in cv.rows)


def test_cross_validate_degenerate_character():
    # g1 is screened out (weight above one) yet a scalar family survives
    heavy = Character({"g1": 1.2, "g2": 0.4, "g3": 0.3, "g4": 0.3})
    cv = cross_validate(Poset(["g1", "g2"], []), heavy.restrict(("g1", "g2")),
                        Poset(["g3", "g4"], []), heavy.restrict(("g3", "g4")),
                        (1, 2), QUICK)
    assert cv.agree
    by_dim = {r["dimension"]: r for r in cv.rows}
    assert by_dim[1]["theory"] and by_dim[1]["oracle"]
    assert not by_dim[2]["theory"] and not by_dim[2]["oracle"]


def test_spectrum_matched_accepts_the_continuous_series():
    chi = Character({"g1": 0.3719, "g2": 0.6281, "g3": 0.6143, "g4": 0.3857})
    pred = predict(QUAD, chi, ["g1", "g2"])
    assert pred.two_point.c_interval is not None
    assert abs(pred.context.sigma1 - 1.0) < 1e-12
    dim2 = [sorted(ch.lambdas) for ch in pred.chains if ch.dimension == 2]
    # a reflection pair about sigma1 / 2, both values in delta1's open intervals
    assert _spectrum_matched(pred, np.array([0.102, 0.898]), dim2)
    assert _spectrum_matched(pred, np.array([0.102, 0.898]), [])
    # off sigma1 by 1e-3
    assert not _spectrum_matched(pred, np.array([0.102, 0.899]), dim2)
    # reflection pairs on discrete points that no predicted chain has
    assert not _spectrum_matched(pred, np.array([0.0, 1.0]), dim2)
    assert not _spectrum_matched(pred, np.array([0.3719, 0.6281]), [])


def test_spectrum_matched_rejects_an_unpredicted_spectrum_in_chains_mode():
    pred = predict(QUAD, POINT_SIX, ["g1", "g2"])
    assert pred.mode == "chains" and pred.two_point is None
    assert not _spectrum_matched(pred, np.array([0.0, 0.5, 0.8]), [[0.0, 0.4, 0.8]])
