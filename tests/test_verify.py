
import itertools
import time

import numpy as np
import pytest

from orthoposet import verify
from orthoposet.builder import (BasicPairParams, MINUS, PLUS, ProjectionFamily,
                                basic_pair, build_from_chain)
from orthoposet.chain import (EigenChain, enumerate_irreducibles,
                              lambda_zero_case, make_context, predict,
                              run_chain)
from orthoposet.poset import Poset
from orthoposet.spectrum import Character
from orthoposet.verify import (NULLSPACE_RTOL, DimensionMismatch, VerifierError,
                               check_all, check_essential, commutant_dim,
                               spectrum_match)

PAIR = Poset(["x", "y"], [])
CHAIN2 = Poset(["x", "y"], [("x", "y")])
QUAD = Poset(["g1", "g2", "g3", "g4"], [])


def kronecker_commutant_dim(fam):
    """Reference: nullity of the stacked kron(I, P) - kron(P^T, I), by SVD."""
    eye = np.eye(fam.dimension)
    stacked = np.vstack([np.kron(eye, p) - np.kron(np.transpose(p), eye)
                         for p in fam.projections.values()])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s <= NULLSPACE_RTOL * s[0]))


@pytest.fixture
def exact_path(monkeypatch):
    """Dimensions at which commutant_dim solved a block system, call by call."""
    calls = []
    solve = verify._block_singular_values

    def counted(b, label):
        calls.append(b.shape[1])
        return solve(b, label)

    monkeypatch.setattr(verify, "_block_singular_values", counted)
    return calls


def quad_families(weight, tol=1e-9):
    chi = Character({g: weight for g in QUAD.elements})
    return [fam for ch in predict(QUAD, chi, ["g1", "g2"], tol).chains
            for fam in build_from_chain(ch)]


def direct_sum(families, seed):
    """The block sum of the families, conjugated by a seeded random unitary."""
    n = sum(f.dimension for f in families)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    projections = {}
    for g in families[0].poset.elements:
        block = np.zeros((n, n), dtype=complex)
        at = 0
        for f in families:
            block[at:at + f.dimension, at:at + f.dimension] = f.projections[g]
            at += f.dimension
        projections[g] = u @ block @ u.conj().T
    return ProjectionFamily(families[0].poset, families[0].character, projections)


def test_two_point_chains_merge_exactly_their_reversals():
    # at zero step constant a 2-dimensional chain is found from both of its
    # discrete ends; the reversed chain builds the same representation
    ctx = make_context(Poset(["g1", "g2"], ()), Character({"g1": 0.3, "g2": 0.9}),
                       Poset(["g3", "g4"], ()), Character({"g3": 0.35, "g4": 0.45}))
    kept = lambda_zero_case(ctx).two_dim
    assert len(kept) == 2
    families = [build_from_chain(ch)[0] for ch in kept]
    for ch, fam in zip(kept, families):
        reversal = EigenChain(ch.lambdas[::-1], ch.mus[::-1], ch.termination, ctx)
        assert commutant_dim(direct_sum([fam, build_from_chain(reversal)[0]], 0)) == 4
    assert commutant_dim(direct_sum(families, 1)) == 2


def diamond_family(eps):
    """The dim-3 family of the diamond recipe, which varies smoothly with eps."""
    a = 0.5 + eps
    ctx = make_context(Poset(["g1", "g2", "g5"], [("g1", "g5"), ("g2", "g5")]),
                       Character({"g1": a, "g2": a, "g5": 0.5 - 2 * eps}),
                       Poset(["g3", "g4"], []), Character({"g3": a, "g4": a}))
    chain, = [ch for ch in enumerate_irreducibles(ctx) if ch.dimension == 3]
    return build_from_chain(chain)[0]


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
    assert commutant_dim(scalar) == kronecker_commutant_dim(scalar) == 9
    # not Hermitian: the graph in eigh's basis would join the two vectors
    skew = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                            {"x": np.array([[1.0, 1.0], [0.0, 2.0]]), "y": np.eye(2)})
    assert commutant_dim(skew) == kronecker_commutant_dim(skew) == 2


def test_commutant_matches_the_svd_on_built_families(exact_path):
    dims = []
    for k in range(4, 41):
        for fam in quad_families(0.5 + 1.0 / k):
            assert commutant_dim(fam) == kronecker_commutant_dim(fam) == 1
            dims.append(fam.dimension)
    assert len(dims) == 36 and max(dims) == 21
    # every built family is certified on the O(n^3) path
    assert exact_path == []


def test_commutant_of_conjugated_direct_sums(exact_path):
    small = quad_families(0.6) + quad_families(0.625) + quad_families(0.5 + 1.0 / 6)
    assert [f.dimension for f in small] == [3, 3, 3, 3, 5, 2, 2]
    pairs = list(itertools.combinations_with_replacement(range(len(small)), 2))
    for seed, (i, j) in enumerate(pairs):
        fam = direct_sum([small[i], small[j]], seed)
        # F (+) F has commutant M_2, of dimension 4; F (+) F' has C (+) C
        assert commutant_dim(fam) == kronecker_commutant_dim(fam) == (4 if i == j else 2)
    # only the repeated summands, with their doubled spectrum, need a block system
    assert exact_path == [2 * small[i].dimension for i, j in pairs if i == j]
    fam = direct_sum([small[0], small[0], small[4]], len(pairs))
    assert commutant_dim(fam) == kronecker_commutant_dim(fam) == 5


def test_commutant_rejects_a_near_reducible_coupling_graph(exact_path):
    # F (+) F' with F' a nearby, non-isomorphic family, coupled at 1e-10: the
    # coupling turns A's eigenvectors by about 1e-6, enough for an unguarded
    # graph to join the summands, but the block system sees two of them
    near = direct_sum([diamond_family(0.05), diamond_family(0.05 + 1e-4)], 0)
    rng = np.random.default_rng(3)
    for g, p in near.projections.items():
        e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        near.projections[g] = p + 1e-10 * (e + e.conj().T)
    assert commutant_dim(near) == kronecker_commutant_dim(near) == 2
    assert exact_path == [6]


def test_long_chain_families_verify_at_large_dimension(exact_path):
    fam = quad_families(0.504)[0]
    assert fam.dimension == 63
    t0 = time.perf_counter()
    report = check_all(fam)
    assert time.perf_counter() - t0 < 1.0
    assert report.passed and report.irreducible
    fam = quad_families(0.502)[0]
    assert fam.dimension == 251
    report = check_all(fam, 1e-10)
    assert report.passed and report.irreducible
    assert exact_path == []


def test_block_system_refuses_above_its_bound():
    # F (+) F (+) F at n = 189: 63 clusters of 3 give 4 * 189^2 * 567 entries
    big = quad_families(0.504)[0]
    fam = direct_sum([big, big, big], 0)
    t0 = time.perf_counter()
    with pytest.raises(VerifierError, match="4 projections at n = 189 needs a stack of "
                       "81015228 entries, above the limit of %d" % verify.MAX_STACK_ENTRIES):
        commutant_dim(fam)
    assert time.perf_counter() - t0 < 1.0


def test_exact_path_still_answers_at_n_42():
    # 21 clusters of two eigenvalues: a block system of 4 * 42^2 * 84 entries
    small = quad_families(0.525)[0]
    assert small.dimension == 21
    assert commutant_dim(direct_sum([small, small], 1)) == 4


def test_block_system_answers_a_threefold_summand_at_n_63(exact_path):
    small = quad_families(0.525)[0]
    fam = direct_sum([small, small, small], 2)
    t0 = time.perf_counter()
    assert commutant_dim(fam) == 9
    assert time.perf_counter() - t0 < 5.0
    assert exact_path == [63]


def test_commutant_of_repeated_non_isomorphic_summands():
    # F^a (+) G^b with F, G non-isomorphic has commutant M_a (+) M_b
    small = quad_families(0.6) + quad_families(0.625) + quad_families(0.5 + 1.0 / 6)
    rng = np.random.default_rng(12)
    for a, b in itertools.product(range(4), repeat=2):
        if a + b == 0:
            continue
        i, j = rng.choice(len(small), size=2, replace=False)
        fam = direct_sum([small[i]] * a + [small[j]] * b, int(rng.integers(1 << 30)))
        assert commutant_dim(fam) == a * a + b * b
        if fam.dimension <= 21:
            assert kronecker_commutant_dim(fam) == a * a + b * b


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
