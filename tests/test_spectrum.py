import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orthoposet.builder import PLUS, MINUS, basic_pair
from orthoposet.poset import ONE_PARAMETER, Poset, classify
from orthoposet.spectrum import (CONTINUOUS, DISCRETE, OUTSIDE, Character,
                                 SpectrumError, delta_of, epsilon_pair,
                                 membership, restore_epsilon)

TOL = 1e-9
EXACT = 1e-12

PAIR = Poset(["x", "y"], [])
PAIR66 = Character({"x": 0.6, "y": 0.6})

weight = st.floats(min_value=0.05, max_value=0.95)


def one_parameter_poset(below, above):
    names = ["b%d" % i for i in range(below)] + ["x", "y"] + \
            ["t%d" % i for i in range(above)]
    lows = names[:below]
    highs = names[below + 2:]
    rels = list(zip(lows, lows[1:])) + list(zip(highs, highs[1:]))
    if lows:
        rels += [(lows[-1], "x"), (lows[-1], "y")]
    if highs:
        rels += [("x", highs[0]), ("y", highs[0])]
    return Poset(names, rels)


def test_character_rejects_nonpositive_weights():
    with pytest.raises(SpectrumError):
        Character({"x": 0.0})
    with pytest.raises(SpectrumError):
        Character({"x": -0.1})


def test_character_rejects_non_finite_weights():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(SpectrumError):
            Character({"x": 0.6, "y": bad})


def test_character_rejects_a_total_whose_double_overflows():
    with pytest.raises(SpectrumError, match="sum to inf"):
        Character({"x": 1e308, "y": 1e308, "z": 0.6})
    # finite total, but sigma = 0.2 + 2e308 of the part g1, g2 < g3 is not
    with pytest.raises(SpectrumError, match="sum to 1e[+]?308, and twice"):
        Character({"x": 0.1, "y": 0.1, "t0": 1e308})
    assert Character({"x": 0.1, "y": 0.1, "t0": 1e307}).total == 1e307


def test_delta_of_rejects_empty_poset():
    with pytest.raises(SpectrumError, match="the empty poset has no spectrum"):
        delta_of(Poset([]), Character({}))


def test_character_total_restrict_json():
    chi = Character({"x": 0.25, "y": 0.5, "z": 0.75})
    assert abs(chi.total - 1.5) < EXACT
    assert "z" not in chi.restrict(["x", "y"])
    back = Character.from_dict(json.loads(json.dumps(chi.to_dict())))
    assert back.weights == chi.weights


def test_delta_of_bare_pair():
    d = delta_of(PAIR, PAIR66)
    assert d.discrete == (0.0, 0.6, 1.2)
    assert d.continuous == ((0.0, 0.6), (0.6, 1.2))
    assert abs(d.sigma - 1.2) < EXACT
    assert d.pair_weights == (0.6, 0.6)
    assert d.upper_tail == 0.0


def test_delta_of_pair_with_top():
    p = one_parameter_poset(0, 1)
    d = delta_of(p, Character({"x": 0.3, "y": 0.5, "t0": 0.2}))
    assert np.allclose(d.discrete, (0.0, 0.2, 0.5, 0.7, 1.0), atol=EXACT)
    assert np.allclose(d.continuous, ((0.2, 0.5), (0.7, 1.0)), atol=EXACT)
    assert abs(d.sigma - 1.2) < EXACT
    assert abs(d.upper_tail - 0.2) < EXACT


def test_delta_of_pair_with_bottom():
    # weight below the pair extends the ladder but not the intervals
    p = one_parameter_poset(1, 1)
    d = delta_of(p, Character({"b0": 0.4, "x": 0.3, "y": 0.5, "t0": 0.2}))
    assert np.allclose(d.discrete, (0.0, 0.2, 0.5, 0.7, 1.0, 1.4), atol=EXACT)
    assert np.allclose(d.continuous, ((0.2, 0.5), (0.7, 1.0)), atol=EXACT)
    assert abs(d.sigma - 1.2) < EXACT


def test_delta_of_chain_has_no_continuum():
    p = Poset(["c1", "c2", "c3"], [("c1", "c2"), ("c2", "c3")])
    d = delta_of(p, Character({"c1": 0.3, "c2": 0.4, "c3": 0.2}))
    assert np.allclose(d.discrete, (0.0, 0.2, 0.6, 0.9), atol=EXACT)
    assert d.continuous == ()


def test_delta_of_rejects_wide_posets():
    with pytest.raises(SpectrumError, match="poset is Wild"):
        delta_of(Poset(["a", "b", "c"], []), Character({"a": 1, "b": 1, "c": 1}))
    with pytest.raises(SpectrumError, match="missing weight for 'y'"):
        delta_of(PAIR, Character({"x": 0.6}))


def test_membership_discrete_wins_ties():
    d = delta_of(PAIR, PAIR66)
    assert membership(d, 0.6) == DISCRETE  # also an interval endpoint
    assert membership(d, 0.6 + 5e-10) == DISCRETE
    assert membership(d, 0.31) == CONTINUOUS
    assert membership(d, 1.2000001) == OUTSIDE
    assert membership(d, -0.1) == OUTSIDE


def test_epsilon_pair_values():
    e1, e2 = epsilon_pair(0.6, 0.6, 0.8)
    assert abs(e1 - 1.0 / 3.0) < EXACT and abs(e2 - 1.0 / 3.0) < EXACT
    e1, e2 = epsilon_pair(0.6, 0.6, 1.0)
    assert abs(e1 - 2.0 / 3.0) < EXACT and abs(e2 - 2.0 / 3.0) < EXACT
    with pytest.raises(SpectrumError, match=r"2\*mu = 1.2 is within tol of a1 \+ a2 = 1.2"):
        epsilon_pair(0.6, 0.6, 0.6)


def test_restore_epsilon_reports_singularity_first():
    p = one_parameter_poset(0, 1)
    d = delta_of(p, Character({"x": 0.3, "y": 0.5, "t0": 0.2}))
    with pytest.raises(SpectrumError, match="is the center"):
        restore_epsilon(d, d.sigma / 2.0)
    with pytest.raises(SpectrumError, match="not interior to the continuous part"):
        restore_epsilon(d, 0.7)  # discrete point
    with pytest.raises(SpectrumError, match="not interior to the continuous part"):
        restore_epsilon(d, 1.3)


@seed(21)
@given(a1=weight, a2=weight, frac=st.floats(min_value=0.05, max_value=0.45))
def test_epsilon_flips_sign_under_reflection(a1, a2, frac):
    mu = a1 + a2 - frac * min(a1, a2)  # interior of the upper interval
    e1, e2 = epsilon_pair(a1, a2, mu)
    f1, f2 = epsilon_pair(a1, a2, a1 + a2 - mu)
    assert abs(e1 + f1) < EXACT
    assert abs(e2 + f2) < EXACT


@seed(22)
@settings(max_examples=60)
@given(a1=weight, a2=weight, tau=st.floats(min_value=0.02, max_value=0.98),
       tail=st.floats(min_value=0.0, max_value=1.0))
def test_two_point_spectrum_formula(a1, a2, tau, tail):
    off = np.sqrt(tau * (1.0 - tau))
    p2 = np.array([[tau, off], [off, 1.0 - tau]])
    top = a1 * np.diag([1.0, 0.0]) + a2 * p2 + tail * np.eye(2)
    radius = np.sqrt(a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * (2.0 * tau - 1.0))
    want = np.sort([(a1 + a2 - radius) / 2.0 + tail,
                    (a1 + a2 + radius) / 2.0 + tail])
    assert np.allclose(np.linalg.eigvalsh(top), want, atol=1e-10)


@seed(23)
@settings(max_examples=60, deadline=None)
@given(below=st.integers(min_value=0, max_value=2),
       above=st.integers(min_value=0, max_value=2),
       data=st.data())
def test_reconstruction_from_restored_offsets(below, above, data):
    p = one_parameter_poset(below, above)
    chi = Character({g: data.draw(weight, label=g) for g in p.elements})
    d = delta_of(p, chi)
    lo, hi = d.continuous[0]
    lam = lo + data.draw(st.floats(min_value=0.1, max_value=0.9), label="lam") * (hi - lo)
    if membership(d, lam) != CONTINUOUS or abs(2 * lam - d.sigma) < 1e-3:
        return
    e1, e2 = restore_epsilon(d, lam)
    proj = {}
    for g in p.elements:
        if g == "x":
            proj[g] = basic_pair(e1, PLUS)
        elif g == "y":
            proj[g] = basic_pair(e2, MINUS)
        elif p.less("x", g):
            proj[g] = np.eye(2)
        else:
            proj[g] = np.zeros((2, 2))
    total = sum(chi[g] * proj[g] for g in p.elements)
    assert np.allclose(np.linalg.eigvalsh(total),
                       np.sort([lam, d.sigma - lam]), atol=1e-10)


@seed(24)
@settings(max_examples=60)
@given(below=st.integers(min_value=0, max_value=2),
       above=st.integers(min_value=0, max_value=2),
       data=st.data())
def test_up_set_sums_fill_the_ladder(below, above, data):
    p = one_parameter_poset(below, above)
    assert classify(p) == ONE_PARAMETER
    chi = Character({g: data.draw(weight, label=g) for g in p.elements})
    d = delta_of(p, chi)
    sums = sorted(set(round(sum(chi[g] for g in u), 12) for u in p.up_sets()))
    assert np.allclose(sums, d.discrete, atol=1e-9)


def test_direct_sum_eigenvalues_stay_in_delta():
    rng = np.random.default_rng(25)
    for _ in range(100):
        p = one_parameter_poset(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        chi = Character({g: rng.uniform(0.05, 1.0) for g in p.elements})
        d = delta_of(p, chi)
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                ups = p.up_sets()
                u = ups[int(rng.integers(0, len(ups)))]
                blocks.append(np.array([[sum(chi[g] for g in u)]]))
            else:
                tau = rng.uniform(0.05, 0.95)
                off = np.sqrt(tau * (1 - tau))
                top = chi["x"] * np.diag([1.0, 0.0])
                top = top + chi["y"] * np.array([[tau, off], [off, 1 - tau]])
                blocks.append(top + d.upper_tail * np.eye(2))
        for a in blocks:
            for value in np.linalg.eigvalsh(a):
                assert membership(d, value, 1e-10) != OUTSIDE
