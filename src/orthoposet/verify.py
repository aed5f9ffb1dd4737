"""Numerical certification: axioms, irreducibility, essentiality, spectra."""

import dataclasses
import operator

import numpy as np

# the residual every axiom must meet; the CLI never checks more loosely
VERIFY_TOL = 1e-10
NULLSPACE_RTOL = 1e-8
# commutant_dim counts a coupling as real above this times sqrt(residual) ||A||
RESIDUAL_COUPLING = 10
# c_g of commutant_dim's generic element: k times this, mod 1, for k = 1, 2, ...
GOLDEN_FRACTION = (5 ** 0.5 - 1) / 2
# the largest stacked system commutant_dim solves: 256 MB complex
MAX_STACK_ENTRIES = 2 ** 24
# a larger system is built and reduced about this many entries (16 MB) at a time
FOLD_ENTRIES = 2 ** 20


class VerifierError(ValueError):
    pass


@dataclasses.dataclass
class VerificationReport:
    """Axiom residuals and structural verdicts, fields in document order."""

    residuals: dict
    max_residual: float = dataclasses.field(init=False)
    commutant_dim: int
    irreducible: bool = dataclasses.field(init=False)
    essential: bool
    forced_elements: list
    tol: float
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        self.max_residual = max(self.residuals.values())
        self.irreducible = self.commutant_dim == 1
        self.passed = self.max_residual <= self.tol

    def to_dict(self):
        return {"residuals": dict(self.residuals), "max_residual": self.max_residual,
                "commutant_dim": self.commutant_dim, "irreducible": self.irreducible,
                "essential": self.essential, "forced_elements": list(self.forced_elements),
                "tol": self.tol, "passed": self.passed}


def _entry_norm(m):
    return float(np.max(np.abs(m))) if m.size else 0.0


def _max_entries(ms):
    "the largest |entry| of each matrix of the stack ms"
    return np.abs(ms).max(axis=(1, 2), initial=0.0)


def _pair_chunks(fam, pairs):
    """Index arrays (lo, hi) into fam's stack for the pairs (g, h) in order,
    as many pairs at a time as hold FOLD_ENTRIES matrix entries (at least one)."""
    at = {g: i for i, g in enumerate(fam.projections)}.__getitem__
    step = max(1, FOLD_ENTRIES // max(1, fam.dimension ** 2))
    for start in range(0, len(pairs), step):
        chunk = pairs[start:start + step]
        yield (np.fromiter(map(at, map(operator.itemgetter(0), chunk)), np.intp, len(chunk)),
               np.fromiter(map(at, map(operator.itemgetter(1), chunk)), np.intp, len(chunk)))


def _forced(fam, tol):
    "elements whose projection is within tol of 0 or of I"
    ps = fam.stack
    near = np.minimum(_max_entries(ps), _max_entries(ps - np.eye(fam.dimension))) <= tol
    return [g for g, f in zip(fam.projections, near.tolist()) if f]


def check_all(fam, tol=VERIFY_TOL):
    """Residuals of every axiom plus the structural verdicts in one report.

    Every residual of a projection or a relation comes from the family's
    (|G|, n, n) stack; one walk over the sorted relations, FOLD_ENTRIES
    entries at a time, takes the order residuals |P_g P_h - P_g| and the
    essential verdict's |P_g - P_h| <= tol. The weighted-sum identity is
    checked on fam.weighted_sum().
    """
    ps = fam.stack
    residuals = {}
    for g, hermitian, idempotent in zip(
            fam.projections, _max_entries(ps - ps.conj().swapaxes(1, 2)).tolist(),
            _max_entries(ps @ ps - ps).tolist()):
        residuals["hermitian[%s]" % g] = hermitian
        residuals["idempotent[%s]" % g] = idempotent
    relations = sorted(fam.poset.relations)
    order, equal = [], False
    for lo, hi in _pair_chunks(fam, relations):
        a, b = ps[lo], ps[hi]
        order += _max_entries(a @ b - a).tolist()
        equal = equal or (_max_entries(a - b) <= tol).any()
    residuals.update(zip(map("order[%s<%s]".__mod__, relations), order))
    residuals["orthoscalar"] = _entry_norm(fam.weighted_sum() - np.eye(fam.dimension))
    forced = _forced(fam, tol)
    return VerificationReport(residuals, commutant_dim(fam, max(residuals.values())),
                              not forced and not equal, forced, tol)


def commutant_dim(fam, residual=0.0):
    """Dimension over the complex field of {X : X P_g = P_g X for all g}.

    Such an X commutes with A = sum_g c_g P_g, c_g fixed and generic, so in A's
    eigenbasis V it is block-diagonal on clusters of A's eigenvalues, and the
    dimension is the nullity of X -> ([X, B_g])_g on those X, B_g = V* P_g V
    (Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math. 27 (2010)).
    Singleton clusters give the components of the graph joining i, j where some
    |B_g[i, j]| > real. Near a reducible family the axiom residuals grow with
    the square of the coupling between its summands, so real is the larger of
    tau = NULLSPACE_RTOL ||A|| and RESIDUAL_COUPLING sqrt(residual) ||A||, with
    residual the family's largest axiom residual. Clusters join gaps up to
    n tau, or all of A unless the P_g are Hermitian within tau. Finer clusters
    can only undercount, so the join gap grows tenfold while the count is
    uncertain: while the graph's edges below 100 tau ||A|| / gap, the accuracy
    of A's eigenvectors, change it, or a singular value lies in (real,
    100 real). A system of |G| n^2 sum m_i^2 entries above MAX_STACK_ENTRIES
    is refused.
    """
    ps = fam.stack
    k, n = len(ps), fam.dimension
    c = np.modf(np.arange(1, k + 1) * GOLDEN_FRACTION)[0]
    w, v = np.linalg.eigh(np.dot(c, ps.reshape(k, -1)).reshape(n, n))
    scale = np.max(np.abs(w))
    tau = NULLSPACE_RTOL * scale
    real = max(tau, RESIDUAL_COUPLING * np.sqrt(residual) * scale)
    b = v.conj().T @ ps @ v
    gaps = np.diff(w)
    merge = n * tau if _entry_norm(ps - ps.swapaxes(1, 2).conj()) <= tau else np.inf
    label = np.zeros(n, dtype=np.intp)
    while True:
        np.cumsum(gaps > merge, out=label[1:])
        if label[-1] == n - 1:
            coupling = np.max(np.abs(b), axis=0)
            coupling = np.maximum(coupling, coupling.T)
            count = _components(coupling > real)
            certain = count == _components(coupling > max(
                real, 100 * tau * scale / np.min(gaps, initial=np.inf)))
        else:
            s = _block_singular_values(b, label)
            count = int(np.sum(s <= real))
            certain = not np.any((s > real) & (s < 100 * real))
        if certain or label[-1] == 0:
            return count
        while np.count_nonzero(gaps > merge) == label[-1]:
            merge *= 10


def _components(adjacent):
    """Connected components of the graph with this symmetric adjacency."""
    unseen = np.ones(len(adjacent), dtype=bool)
    count = 0
    while unseen.any():
        count += 1
        front = np.flatnonzero(unseen)[:1]
        while len(front):
            unseen[front] = False
            front = np.flatnonzero(adjacent[front].any(axis=0) & unseen)
    return count


def _block_singular_values(b, label):
    """Singular values of X -> ([X, B_g])_g over X block-diagonal by label.

    The system is built about FOLD_ENTRIES entries at a time, in one block
    when it has no more, in rows t = g n + i of the [X, B_g], and each block
    is folded into the triangle R of a QR decomposition under the blocks
    before it; the SVD of R gives the system's singular values.
    """
    n = len(label)
    rows, cols = np.nonzero(label[:, None] == label)
    unknowns = np.arange(len(rows))
    size = len(b) * n * n * len(rows)
    if size > MAX_STACK_ENTRIES:
        raise VerifierError("the exact commutant of %d projections at n = %d needs a "
                            "stack of %d entries, above the limit of %d"
                            % (len(b), n, size, MAX_STACK_ENTRIES))
    # (g, i) a block holds, n rows each; at least as many rows as unknowns,
    # so that folding R into each block costs at most about one more QR
    step = max(FOLD_ENTRIES // (n * len(rows)), -(-len(rows) // n))
    r = np.zeros((0, len(rows)), dtype=complex)
    for start in range(0, len(b) * n, step):
        g, i = np.divmod(np.arange(start, min(start + step, len(b) * n)), n)
        system = np.zeros((len(r) + len(g) * n, len(rows)), dtype=complex)
        system[:len(r)] = r
        block = system[len(r):].reshape(len(g), n, len(rows))
        # unknown k is X[rows[k], cols[k]]: its column is E B_g - B_g E, E its unit
        t, k = np.nonzero(i[:, None] == rows)
        block[t, :, k] = b[g[t], cols[k], :]
        block[:, cols, unknowns] -= b[g[:, None], i[:, None], rows]
        r = np.linalg.qr(system, mode="r")
    return np.linalg.svd(r, compute_uv=False)


def check_essential(fam, tol=VERIFY_TOL):
    """check_all(fam, tol).essential: no P_g near 0 or I, no P_g near P_h for g < h."""
    return check_all(fam, tol).essential


def spectrum_match(fam, chain, tol=VERIFY_TOL):
    """Do the two layer spectra reproduce the chain's eigenvalue lists?"""
    if fam.split is None:
        raise VerifierError("family carries no split; cannot form the layer sums")
    return all(len(want) == fam.dimension and np.allclose(
        np.linalg.eigvalsh(fam.weighted_sum(part)), np.sort(want), atol=tol, rtol=0.0)
        for part, want in zip(fam.split, (chain.lambdas, chain.mus)))
