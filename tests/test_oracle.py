import collections
import dataclasses
import itertools
import json
import logging
import random
import time
import tracemalloc

import numpy as np
import pytest

from orthoposet.builder import build_from_chain
from orthoposet.chain import (enumerate_dim1, enumerate_irreducibles,
                              make_context, predict)
from orthoposet.oracle import (ACCEPT_TOL, ANDERSON_MEMORY, LANE_POOL,
                               PROFILE_SLACK, STALL_FACTOR, STALL_WINDOW,
                               OracleError, SearchConfig, _lstsq,
                               _random_projection, _run_lanes, _search_once,
                               _spectrum_matched, cross_validate,
                               rank_profiles, search_numeric, trace_feasible)
from orthoposet.poset import Poset, generate_posets
from orthoposet.spectrum import Character
from orthoposet.verify import check_all, commutant_dim

QUAD = Poset(["g1", "g2", "g3", "g4"], [])
CHAIN2 = Poset(["x", "y"], [("x", "y")])

POINT_SIX = Character({g: 0.6 for g in QUAD.elements})
QUICK = SearchConfig(dimension=1, restarts=4, max_iterations=2000, seed=0)


def test_search_config_validation():
    with pytest.raises(OracleError):
        SearchConfig(dimension=0)
    with pytest.raises(OracleError):
        SearchConfig(dimension=2, restarts=0)
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
    assert len(profiles) == 19
    for ranks in profiles:
        assert abs(sum(0.5 * r for r in ranks) - 2.0) <= 1e-6


def test_rank_profiles_are_monotone():
    assert rank_profiles(CHAIN2, Character({"x": 0.5, "y": 0.5}), 2) == [(2, 2)]
    chi = Character({"x": 0.31415926, "y": 0.2718281828})
    assert rank_profiles(CHAIN2, chi, 2) == []


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
    return [tuple(int(r) for r in row) for row in grid[order]]


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
                    assert (rank_profiles(p, chi, dimension)
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
    assert trace_feasible(fam.poset, fam.character, [ranks], fam.dimension)[0], \
        (fam.poset, fam.character, ranks)


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
        ctx = make_context(part1, chi.restrict(part1.elements),
                           part2, chi.restrict(part2.elements))
        for chain in enumerate_irreducibles(ctx):
            for fam in build_from_chain(chain):
                _assert_profile_passes(fam)
                built += 1
    assert built == 32


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
    found = refuted = 0
    for k in range(1, 5):
        for p in generate_posets(k) * 2:
            d = rng.randint(1, 4)
            chi = _planted_character(rng, p, d)
            cfg = SearchConfig(dimension=d, restarts=1, max_iterations=500, seed=k)
            profiles = rank_profiles(p, chi, d)
            refuted += int((~trace_feasible(p, chi, profiles, d)).sum())
            for pidx, ranks in enumerate(profiles):
                fam = _search_once(p, chi, ranks, np.random.default_rng([k, pidx]), cfg)
                if fam is not None and check_all(fam).passed:
                    assert _profile(fam) == ranks
                    _assert_profile_passes(fam)
                    found += 1
    assert found >= 20 and refuted >= 10, (found, refuted)


def test_search_keeps_the_seed_of_each_surviving_lane():
    cfg = dataclasses.replace(QUICK, dimension=3)
    profiles = rank_profiles(QUAD, POINT_SIX, 3)
    feasible = trace_feasible(QUAD, POINT_SIX, profiles, 3)
    # the first surviving lane, in (restart, profile) order, that verifies
    for restart, pidx in itertools.product(range(cfg.restarts),
                                           np.flatnonzero(feasible)):
        want = _search_once(QUAD, POINT_SIX, profiles[pidx],
                            np.random.default_rng([cfg.seed, pidx, restart]), cfg)
        if want is not None and check_all(want, 1e-10).passed:
            break
    assert not feasible[:pidx].all()  # a refuted profile comes before it
    got = search_numeric(QUAD, POINT_SIX, cfg)
    for g in QUAD.elements:
        assert np.array_equal(got.projections[g], want.projections[g])


EPS = 0.0131
A4_TWO_SIDED = Poset(["g1", "g2", "g5", "g3", "g4", "g6"],
                     [("g1", "g5"), ("g2", "g5"), ("g3", "g6"), ("g4", "g6")])
A6_FOUR_CHAIN = Poset(["g1", "g2", "g5", "g6", "g3", "g4"],
                      [("g1", "g5"), ("g2", "g5"), ("g5", "g6")])
ENDS = {g: 0.5 + EPS for g in ("g1", "g2", "g3", "g4")}
# (poset, character, dimension), mostly the searches of the oracle workloads
POOL_CASES = {
    "quad-d3": (QUAD, POINT_SIX, 3),
    "quad-d4": (QUAD, POINT_SIX, 4),
    "zero-cap-d5": (QUAD, Character({"g1": 0.3719, "g2": 1 - 0.3719,
                                     "g3": 0.6143, "g4": 1 - 0.6143}), 5),
    "a4-two-sided-d5": (A4_TWO_SIDED, Character(
        dict(ENDS, g5=EPS / 2, g6=0.5 - 2.5 * EPS)), 5),
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
    """(ranks, rng) of every lane search_numeric runs, in scan order."""
    profiles = rank_profiles(p, chi, cfg.dimension)
    feasible = np.flatnonzero(trace_feasible(p, chi, profiles, cfg.dimension))
    return [(profiles[pidx], np.random.default_rng([cfg.seed, pidx, restart]))
            for restart, pidx in itertools.product(range(cfg.restarts), feasible)]


def test_pooled_lanes_match_the_one_lane_loop():
    exits = collections.Counter()
    longest = 0
    for p, chi, d in POOL_CASES.values():
        for iterations in (2000, 60):
            cfg = SearchConfig(dimension=d, restarts=2, max_iterations=iterations)
            pooled = list(_run_lanes(p, chi, cfg, _lanes(p, chi, cfg)))
            lanes = _lanes(p, chi, cfg)
            assert len(pooled) == len(lanes)
            for (exit, fam), (ranks, rng) in zip(pooled, lanes):
                want_exit, want = _reference_lane(p, chi, ranks, rng, cfg)
                assert exit == want_exit
                assert (fam is None) == (want is None)
                for i, g in enumerate(p.elements if fam else ()):
                    assert np.array_equal(fam.projections[g], want[i])
                exits[exit] += 1
            longest = max(longest, len(pooled))
    assert set(exits) == {"accepted", "step_tol", "stall", "max_iterations"}
    assert longest > LANE_POOL


def _serial_search(p, chi, cfg, require_irreducible):
    """(family, lanes scanned) by _search_once on each lane, then check_all."""
    scanned = 0
    for ranks, rng in _lanes(p, chi, cfg):
        scanned += 1
        fam = _search_once(p, chi, ranks, rng, cfg)
        if fam is not None:
            report = check_all(fam, ACCEPT_TOL)
            if report.passed and (report.irreducible or not require_irreducible):
                return fam, scanned
    return None, scanned


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_search_matches_a_serial_scan(case):
    p, chi, d = POOL_CASES[case]
    for require, iterations in itertools.product((False, True), (2000, 60)):
        cfg = SearchConfig(dimension=d, restarts=2, max_iterations=iterations)
        want, _ = _serial_search(p, chi, cfg, require)
        got = search_numeric(p, chi, cfg, require_irreducible=require)
        assert (got is None) == (want is None), (require, iterations)
        for g in p.elements if got else ():
            assert np.array_equal(got.projections[g], want.projections[g])


def test_search_takes_a_winner_past_a_full_pool():
    p, chi, d = POOL_CASES["quad-half-d2"]
    cfg = SearchConfig(dimension=d, restarts=2)
    want, scanned = _serial_search(p, chi, cfg, True)
    assert scanned > LANE_POOL and commutant_dim(want) == 1
    got = search_numeric(p, chi, cfg, require_irreducible=True)
    for g in p.elements:
        assert np.array_equal(got.projections[g], want.projections[g])


def test_lstsq_helper_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(9)
    for m in range(1, ANDERSON_MEMORY + 1):
        # stored as the engine keeps its history: steps along the middle axis
        steps = rng.standard_normal((6, m, 96))
        steps[0, -1] = steps[0, 0]  # rank deficient (for m = 1, a repeat)
        f = rng.standard_normal((6, 96))
        got = _lstsq(steps.transpose(0, 2, 1), f[:, :, None])
        assert got.shape == (6, m, 1)
        for i in range(6):
            want = np.linalg.lstsq(np.stack(list(steps[i]), axis=1), f[i],
                                   rcond=None)[0]
            assert np.array_equal(got[i, :, 0], want)


def test_search_logs_one_debug_line(caplog):
    cfg = dataclasses.replace(QUICK, dimension=3)
    with caplog.at_level(logging.DEBUG, logger="orthoposet.oracle"):
        search_numeric(QUAD, POINT_SIX, cfg)
    assert [r.getMessage() for r in caplog.records] == [
        "search d=3: 40 profiles listed, 24 refuted by the trace identity, "
        "5 lanes run, found=True"]


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


def test_search_rejects_incomplete_character():
    with pytest.raises(OracleError):
        search_numeric(QUAD, Character({"g1": 0.6}), QUICK)


def test_search_finds_continuous_series_member():
    half = Character({g: 0.5 for g in QUAD.elements})
    fam = search_numeric(QUAD, half, dataclasses.replace(QUICK, dimension=2),
                         require_irreducible=True)
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
