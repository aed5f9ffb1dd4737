
import numpy as np
import pytest

from orthoposet.builder import (BasicPairParams, MINUS, PLUS, ProjectionFamily,
                                basic_pair, build_from_chain)
from orthoposet.chain import enumerate_irreducibles, make_context, run_chain
from orthoposet.poset import Poset
from orthoposet.spectrum import Character
from orthoposet.verify import (DimensionMismatch, VerifierError, check_all,
                               check_essential, commutant_dim, spectrum_match)

PAIR = Poset(["x", "y"], [])
CHAIN2 = Poset(["x", "y"], [("x", "y")])
QUAD = Poset(["g1", "g2", "g3", "g4"], [])


def three_point_family():
    ctx = make_context(Poset(["g1", "g2"], []), Character({"g1": 0.6, "g2": 0.6}),
                       Poset(["g3", "g4"], []), Character({"g3": 0.6, "g4": 0.6}))
    chain = run_chain(ctx, 0.0)
    return build_from_chain(chain)[0], chain


def test_check_all_reports_every_axiom():
    fam, _ = three_point_family()
    report = check_all(fam)
    assert report.passed and report.irreducible and report.essential
    assert report.forced_elements == []
    keys = set(report.residuals)
    assert "orthoscalar" in keys
    assert "hermitian[g1]" in keys and "idempotent[g4]" in keys
    doc = report.to_dict()
    assert doc["passed"] is True


def test_each_defect_lands_in_its_residual():
    fam, _ = three_point_family()
    broken = dict(fam.projections)
    broken["g1"] = broken["g1"] + np.array([[0, 1e-6, 0], [0, 0, 0], [0, 0, 0]])
    report = check_all(ProjectionFamily(fam.poset, fam.character, broken))
    assert not report.passed
    assert report.residuals["hermitian[g1]"] > 1e-7

    broken = dict(fam.projections)
    broken["g2"] = 1.1 * broken["g2"]
    report = check_all(ProjectionFamily(fam.poset, fam.character, broken))
    assert report.residuals["idempotent[g2]"] > 1e-3
    assert report.residuals["orthoscalar"] > 1e-3

    nested = ProjectionFamily(CHAIN2, Character({"x": 0.5, "y": 0.5}),
                              {"x": np.diag([1.0, 0.0]), "y": np.diag([0.0, 1.0])})
    report = check_all(nested)
    assert report.residuals["order[x<y]"] == 1.0


def test_shape_mismatch_raises():
    fam = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                           {"x": np.eye(2), "y": np.eye(3)})
    with pytest.raises(DimensionMismatch):
        check_all(fam)


def test_commutant_dimensions():
    tau = 0.3
    fam = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                           {"x": basic_pair(BasicPairParams(tau, PLUS)),
                            "y": basic_pair(BasicPairParams(-tau, PLUS))})
    assert commutant_dim(fam) == 1  # non-commuting rank ones
    split = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                             {"x": np.diag([1.0, 0.0]), "y": np.diag([0.0, 1.0])})
    assert commutant_dim(split) == 2
    scalar = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                              {"x": np.eye(3), "y": np.eye(3)})
    assert commutant_dim(scalar) == 9


def test_forced_elements_and_essentiality():
    fam = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 0.5}),
                           {"x": np.eye(2), "y": np.zeros((2, 2))})
    report = check_all(fam)
    assert report.passed
    assert sorted(report.forced_elements) == ["x", "y"]
    assert not report.essential

    equal = ProjectionFamily(CHAIN2, Character({"x": 0.6, "y": 0.6}),
                             {"x": np.diag([1.0, 0.0]), "y": np.diag([1.0, 0.0])})
    assert not check_essential(equal)

    fam3, _ = three_point_family()
    assert check_essential(fam3)


def test_spectrum_match():
    fam, chain = three_point_family()
    assert spectrum_match(fam, chain)
    other = run_chain(make_context(
        Poset(["g1", "g2"], []), Character({"g1": 5 / 9, "g2": 5 / 9}),
        Poset(["g3", "g4"], []), Character({"g3": 5 / 9, "g4": 5 / 9})), 0.0)
    assert not spectrum_match(fam, other)
    naked = ProjectionFamily(fam.poset, fam.character, fam.projections)
    with pytest.raises(VerifierError):
        spectrum_match(naked, chain)


def test_randomized_families_verify_and_are_irreducible():
    diamond = Poset(["g1", "g2", "g5"], [("g1", "g5"), ("g2", "g5")])
    pair = Poset(["g3", "g4"], ())
    rng = np.random.default_rng(50)
    for _ in range(1000):
        eps = rng.uniform(0.002, 0.08)
        m = int(rng.integers(1, 3))
        a = 0.5 + eps
        ctx = make_context(diamond,
                           Character({"g1": a, "g2": a, "g5": 1.0 / (2 * m) - 2 * eps}),
                           pair, Character({"g3": a, "g4": a}))
        chains = [ch for ch in enumerate_irreducibles(ctx)
                  if ch.dimension == 2 * m + 1]
        assert chains
        reports = [check_all(fam) for fam in build_from_chain(chains[0])]
        assert all(r.passed for r in reports)
        assert any(r.irreducible for r in reports)
