
import contextlib
import io
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from orthoposet import cli, verify
from orthoposet.builder import (PLUS, BuilderError, ProjectionFamily,
                                basic_pair, build_from_chain)
from orthoposet.chain import (ChainContext, EigenChain,
                              enumerate_irreducibles, lambda_zero_case,
                              predict, run_chain)
from orthoposet.poset import Poset
from orthoposet.spectrum import Character
from orthoposet.verify import (NULLSPACE_RTOL, VerifierError, check_all,
                               check_essential, commutant_dim, spectrum_match)

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
    ctx = ChainContext(Poset(["g1", "g2"], ()), Character({"g1": 0.3, "g2": 0.9}),
                       Poset(["g3", "g4"], ()), Character({"g3": 0.35, "g4": 0.45}))
    kept = lambda_zero_case(ctx).chains
    assert len(kept) == 2
    families = [build_from_chain(ch)[0] for ch in kept]
    for ch, fam in zip(kept, families):
        reversal = EigenChain(ch.lambdas[::-1], ch.mus[::-1], ch.termination, ctx)
        assert commutant_dim(direct_sum([fam, build_from_chain(reversal)[0]], 0)) == 4
    assert commutant_dim(direct_sum(families, 1)) == 2


def diamond_family(eps):
    """The dim-3 family of the diamond recipe, which varies smoothly with eps."""
    a = 0.5 + eps
    ctx = ChainContext(Poset(["g1", "g2", "g5"], [("g1", "g5"), ("g2", "g5")]),
                       Character({"g1": a, "g2": a, "g5": 0.5 - 2 * eps}),
                       Poset(["g3", "g4"], []), Character({"g3": a, "g4": a}))
    chain, = [ch for ch in enumerate_irreducibles(ctx) if ch.dimension == 3]
    return build_from_chain(chain)[0]


def three_point_family():
    ctx = ChainContext(Poset(["g1", "g2"], []), Character({"g1": 0.6, "g2": 0.6}),
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
    with pytest.raises(BuilderError, match="square matrices of one size"):
        ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                         {"x": np.eye(2), "y": np.eye(3)})


@pytest.mark.blas_bits
def test_commutant_dimensions():
    tau = 0.3
    fam = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 1.0}),
                           {"x": basic_pair(tau, PLUS),
                            "y": basic_pair(-tau, PLUS)})
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


@pytest.mark.blas_bits
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


@pytest.mark.blas_bits
def test_commutant_rejects_a_near_reducible_coupling_graph(exact_path):
    # F (+) F' with F' a nearby, non-isomorphic family, coupled at 1e-10: the
    # coupling turns A's eigenvectors by about 1e-6, enough for an unguarded
    # graph to join the summands, but the block system sees two of them
    near = direct_sum([diamond_family(0.05), diamond_family(0.05 + 1e-4)], 0)
    rng = np.random.default_rng(3)
    perturbed = {}
    for g, p in near.projections.items():
        e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        perturbed[g] = p + 1e-10 * (e + e.conj().T)
    near = ProjectionFamily(near.poset, near.character, perturbed)
    assert commutant_dim(near) == kronecker_commutant_dim(near) == 2
    assert exact_path == [6]


@pytest.mark.blas_bits
def test_commutant_sees_a_coupling_the_axioms_cannot():
    # Q(phi) projects onto (cos phi, sin phi). At theta = 0 the family is
    # I, Q(0), I - Q(0), Q(0): reducible. Turned by theta = 1e-6 it couples
    # the two lines at 8e-6, far above tau, yet its axiom residuals grow
    # with theta squared, so it passes at 1.2e-11
    def q(phi):
        v = np.array([np.cos(phi), np.sin(phi)])
        return np.outer(v, v)

    theta = 1e-6
    fam = ProjectionFamily(QUAD, Character(dict(zip(QUAD.elements, (0.2, 0.3, 0.8, 0.5)))),
                           {"g1": np.eye(2), "g2": q(5 * theta),
                            "g3": np.eye(2) - q(0.0), "g4": q(-3 * theta)})
    report = check_all(fam)
    assert report.passed and 1e-11 < report.max_residual < 1.5e-11
    assert abs(np.max(np.abs(fam.projections["g2"] - fam.projections["g4"])) - 8e-6) < 1e-7
    assert report.commutant_dim == 2 and not report.irreducible
    # without the residual, the coupling counts as real
    assert commutant_dim(fam) == 1


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
    # at n = 501 one copy of the family's stack is 8 MB: check_all reads
    # the family's own stack and peaks at about 26 MB, and one more copy
    # of it would pass the bound
    fam = quad_families(0.501)[0]
    assert fam.dimension == 501
    tracemalloc.start()
    try:
        report = check_all(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.irreducible
    assert peak < 30e6
    assert exact_path == []


def test_ladder_families_pass_at_the_default_tolerance_at_large_dimension():
    # four weights 1/2 + 1/k give one chain, of dimension k/2 + 1
    for k, dimension in ((256, 129), (512, 257)):
        families = quad_families(0.5 + 1 / k)
        assert [fam.dimension for fam in families] == [dimension]
        for fam in families:
            report = check_all(fam)
            assert report.passed and report.commutant_dim == 1, (k, report.max_residual)


@pytest.mark.blas_bits
def test_block_system_refuses_above_its_bound():
    # F (+) F (+) F at n = 189: 63 clusters of 3 give 4 * 189^2 * 567 entries
    big = quad_families(0.504)[0]
    fam = direct_sum([big, big, big], 0)
    t0 = time.perf_counter()
    with pytest.raises(VerifierError, match="4 projections at n = 189 needs a stack of "
                       "81015228 entries, above the limit of %d" % verify.MAX_STACK_ENTRIES):
        commutant_dim(fam)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.blas_bits
def test_exact_path_still_answers_at_n_42():
    # 21 clusters of two eigenvalues: a block system of 4 * 42^2 * 84 entries
    small = quad_families(0.525)[0]
    assert small.dimension == 21
    assert commutant_dim(direct_sum([small, small], 1)) == 4


@pytest.mark.blas_bits
def test_block_system_folds_in_row_blocks(monkeypatch):
    # F (+) F at n = 42, built two (g, i) at a time and folded into R, gives
    # the singular values of the system folded as one block
    small = quad_families(0.525)[0]
    fam = direct_sum([small, small], 1)
    systems, folds = [], []
    solve, qr = verify._block_singular_values, np.linalg.qr

    def recorded(b, label):
        systems.append((b, label))
        return solve(b, label)

    def fold(a, mode):
        folds.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(verify, "_block_singular_values", recorded)
    monkeypatch.setattr(np.linalg, "qr", fold)
    assert commutant_dim(fam) == 4
    direct = [solve(b, label) for b, label in systems]
    # at the default bound each system is one block and takes one QR; the
    # line above folds each once more
    assert folds == [(4 * 42 * 42, 84)] * (2 * len(systems))
    folds.clear()
    monkeypatch.setattr(verify, "FOLD_ENTRIES", 2 ** 12)
    for (b, label), want in zip(systems, direct):
        got = solve(b, label)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * want[0])
    assert len(folds) == len(systems) * 4 * 42 // 2 and folds[-1] == (84 + 2 * 42, 84)
    assert commutant_dim(fam) == 4


@pytest.mark.blas_bits
def test_block_system_answers_a_threefold_summand_at_n_63(exact_path):
    small = quad_families(0.525)[0]
    fam = direct_sum([small, small, small], 2)
    # the best of three calls, so that another process on the host does not decide
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        assert commutant_dim(fam) == 9
        best = min(best, time.perf_counter() - t0)
    assert best < 5.0
    # one block system of size 63 per call
    assert exact_path == [63] * 3


@pytest.mark.blas_bits
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
    for f, tol in itertools.product((fam, equal, fam3), (1e-8, verify.VERIFY_TOL)):
        assert check_essential(f, tol) == check_all(f, tol).essential


def test_check_all_finds_the_forced_elements_once(monkeypatch):
    calls = []
    forced = verify._forced
    monkeypatch.setattr(verify, "_forced",
                        lambda fam, tol: calls.append(tol) or forced(fam, tol))
    pinned = ProjectionFamily(PAIR, Character({"x": 1.0, "y": 0.5}),
                              {"x": np.eye(2), "y": np.zeros((2, 2))})
    equal = ProjectionFamily(CHAIN2, Character({"x": 0.6, "y": 0.6}),
                             {"x": np.diag([1.0, 0.0]), "y": np.diag([1.0, 0.0])})
    for fam, forced_elements, essential in ((pinned, ["x", "y"], False),
                                            (equal, [], False),
                                            (three_point_family()[0], [], True)):
        calls.clear()
        report = check_all(fam, 1e-10)
        assert calls == [1e-10]
        assert (report.forced_elements, report.essential) == (forced_elements, essential)


def test_spectrum_match():
    fam, chain = three_point_family()
    assert spectrum_match(fam, chain)
    other = run_chain(ChainContext(
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
        ctx = ChainContext(diamond,
                           Character({"g1": a, "g2": a, "g5": 1.0 / (2 * m) - 2 * eps}),
                           pair, Character({"g3": a, "g4": a}))
        chains = [ch for ch in enumerate_irreducibles(ctx)
                  if ch.dimension == 2 * m + 1]
        assert chains
        reports = [check_all(fam) for fam in build_from_chain(chains[0])]
        assert all(r.passed for r in reports)
        assert any(r.irreducible for r in reports)


def _reference_check_all(fam, tol):
    """check_all's residuals, forced elements and essentiality as one numpy
    call per projection, relation and test computed them."""
    def norm(m):
        return float(np.max(np.abs(m))) if m.size else 0.0

    ps, eye, residuals = fam.projections, np.eye(fam.dimension), {}
    for g, p in ps.items():
        residuals["hermitian[%s]" % g] = norm(p - p.conj().T)
        residuals["idempotent[%s]" % g] = norm(p @ p - p)
    for g, h in sorted(fam.poset.relations):
        residuals["order[%s<%s]" % (g, h)] = norm(ps[g] @ ps[h] - ps[g])
    residuals["orthoscalar"] = norm(fam.weighted_sum() - eye)
    forced = [g for g, p in ps.items() if norm(p) <= tol or norm(p - eye) <= tol]
    essential = not forced and not any(norm(ps[g] - ps[h]) <= tol
                                       for g, h in fam.poset.relations)
    return residuals, forced, essential


def cli_checked_families(monkeypatch, tmp_path, runs):
    """(family, tol) of every check_all call the CLI makes on these runs,
    each (elements, relations, weights, split, extra flags); every family
    solve prints is also verified again from its file, with exactly the
    residuals solve printed for it (keys, order and bits); and on each,
    check_essential gives check_all's verdict at 1e-8 and at VERIFY_TOL."""
    seen = []
    monkeypatch.setattr(cli, "check_all",
                        lambda fam, tol: seen.append((fam, tol)) or check_all(fam, tol))
    for i, (elements, relations, weights, split, extra) in enumerate(runs):
        poset, character, out = (str(tmp_path / ("%s-%d.json" % (name, i)))
                                 for name in ("poset", "character", "reply"))
        with open(poset, "w", encoding="utf-8") as fh:
            json.dump({"elements": elements, "relations": relations}, fh)
        with open(character, "w", encoding="utf-8") as fh:
            json.dump({"weights": weights}, fh)
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            assert cli.main(["solve", "--poset", poset, "--character", character,
                             "--split", ",".join(split)] + extra) == 0
        with open(out, encoding="utf-8") as fh:
            records = json.load(fh)["families"]
        for j, record in enumerate(records):
            family = str(tmp_path / ("family-%d-%d.json" % (i, j)))
            with open(family, "w", encoding="utf-8") as fh:
                json.dump(record["family"], fh)
            with contextlib.redirect_stdout(io.StringIO()) as reply:
                assert cli.main(["verify", family, "--poset", poset]) == 0
            got = json.loads(reply.getvalue())["residuals"]
            want = record["verification"]["residuals"]
            assert [(k, v.hex()) for k, v in got.items()] == \
                [(k, v.hex()) for k, v in want.items()]
    for fam, _ in seen:
        for tol in (1e-8, verify.VERIFY_TOL):
            assert check_essential(fam, tol) == check_all(fam, tol).essential
    return seen


def bit_test_families(monkeypatch, tmp_path):
    quad = ["g1", "g2", "g3", "g4"]
    # the solve-ladder inputs: four weights 1/2 + 1/k
    runs = [(quad, [], dict.fromkeys(quad, 0.5 + 1 / k), quad[:2], [])
            for k in range(4, 61, 2)]
    # the a2, a4 and a6 recipes, alone and with a heavy element z below the
    # first pair, which solve pads with a float64 zero matrix
    eps, diamond = 0.0131, [["g1", "g5"], ["g2", "g5"]]
    ends = dict.fromkeys(quad, 0.5 + eps)
    for elements, relations, weights, split in (
            (quad + ["g5"], diamond, dict(ends, g5=1 / 3 - 2 * eps), ["g1", "g2", "g5"]),
            (quad + ["g5", "g6"], diamond + [["g3", "g6"], ["g4", "g6"]],
             dict(ends, g5=eps / 2, g6=1 / 2 - 2.5 * eps), ["g1", "g2", "g5"]),
            (quad + ["g5", "g6"], diamond + [["g5", "g6"]],
             dict(ends, g5=eps / 2, g6=1 / 3 - 7 * eps / 3), ["g1", "g2", "g5", "g6"])):
        runs.append((elements, relations, weights, split, []))
        runs.append((elements + ["z"], relations + [["z", "g1"], ["z", "g2"]],
                     dict(weights, z=1.25), split + ["z"], []))
    # the continuous series, complex at this phase, on the quad and on the
    # quad with a heavy loose element and a pinned chain below the first
    # pair: solve pads each element it leaves out with a zero matrix, which
    # the family upcasts, and verify reads the family back as real only if
    # no entry of any matrix has an imaginary part
    half = dict.fromkeys(quad, 0.5)
    continuous = ["--c", "0.25", "--gamma", "0.6,0.8"]
    runs.append((quad, [], half, quad[:2], continuous))
    runs.append((quad + ["h", "b", "c"], [["b", "g1"], ["b", "g2"], ["c", "b"]],
                 dict(half, h=1.5, b=1.25, c=0.4), ["g1", "g2", "h", "b", "c"],
                 ["--c", "0.2", "--gamma", "0,1"]))
    fams = cli_checked_families(monkeypatch, tmp_path, runs)
    # the forced and equal-pair fixtures, and random real and complex
    # matrices on a chain, which the family holds as one complex stack
    rng = np.random.default_rng(35)
    mixed = {g: rng.standard_normal((20, 20)) for g in "abcd"}
    mixed["b"] = mixed["b"] + 1j * rng.standard_normal((20, 20))
    mixed["d"] = mixed["d"].astype(complex)
    fams += [(ProjectionFamily(PAIR, Character({"x": 1.0, "y": 0.5}),
                               {"x": np.eye(2), "y": np.zeros((2, 2))}), 1e-10),
             (ProjectionFamily(CHAIN2, Character({"x": 0.6, "y": 0.6}),
                               {"x": np.diag([1.0, 0.0]), "y": np.diag([1.0, 0.0])}), 1e-10),
             (ProjectionFamily(Poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
                               Character(dict.fromkeys("abcd", 0.25)), mixed), 1e-10)]
    return fams


@pytest.mark.blas_bits
def test_stacked_verifier_keeps_every_bit_of_the_per_matrix_loop(monkeypatch, tmp_path):
    fams = bit_test_families(monkeypatch, tmp_path)
    # a family holds one dtype: the float64 zero pads of a complex family
    # are upcast, and both dtypes occur
    kinds = [{p.dtype for p in fam.projections.values()} for fam, _ in fams]
    assert all(kind == {fam.stack.dtype} for kind, (fam, _) in zip(kinds, fams))
    assert set().union(*kinds) == {np.dtype(float), np.dtype(complex)}
    essential = 0
    for fam, tol in fams:
        report = check_all(fam, tol)
        residuals, forced, want = _reference_check_all(fam, tol)
        assert [(k, v.hex()) for k, v in report.residuals.items()] == \
            [(k, v.hex()) for k, v in residuals.items()]
        assert (report.forced_elements, report.essential) == (forced, want)
        assert report.commutant_dim == commutant_dim(fam, max(residuals.values()))
        essential += want
    assert len(fams) > 100 and essential > 50


def test_order_residuals_of_long_chains_are_taken_in_chunks():
    # two 1,000-element chains, a 1x1 family: 999,000 relations, one
    # residual each; the closure's pairs are the poset's work, so they are
    # listed before the clock starts
    first, second = (["%s%04d" % (c, i) for i in range(1000)] for c in "ab")
    p = Poset(first + second, list(zip(first, first[1:])) + list(zip(second, second[1:])))
    assert len(p.relations) == 999000
    fam = ProjectionFamily(p, Character(dict.fromkeys(p.elements, 1 / 2000)),
                           {g: np.ones((1, 1)) for g in p.elements})
    # the best of two tries, so that another process on the host does not
    # decide; one residual per call to numpy took over 5.6 s
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        report = check_all(fam)
        best = min(best, time.perf_counter() - t0)
        if best < 2.8:
            break
    assert best < 2.8
    assert len(report.residuals) == 2 * 2000 + 999000 + 1
    assert report.passed and report.residuals["order[a0000<a0999]"] == 0.0
    # at n = 32 a chunk is 1,024 relations, 8 MB an array, and the peak is
    # about 35 MB; the 4,950 relations of a 100-element chain at once would
    # take 40 MB an array and peak at about 160 MB
    names = ["c%03d" % i for i in range(100)]
    ranks = [(i + 1) * 32 // 100 for i in range(100)]
    fam = ProjectionFamily(Poset(names, list(zip(names, names[1:]))),
                           Character(dict.fromkeys(names, 0.01)),
                           {g: np.diag(np.arange(32) < r).astype(float)
                            for g, r in zip(names, ranks)})
    tracemalloc.start()
    try:
        report = check_all(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.residuals) == 2 * 100 + 4950 + 1
    assert max(v for k, v in report.residuals.items() if k.startswith("order")) == 0.0
    assert peak < 60e6
