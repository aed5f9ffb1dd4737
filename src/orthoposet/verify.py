"""Numerical certification: axioms, irreducibility, essentiality, spectra."""

import dataclasses

import numpy as np

# the residual every axiom must meet; the CLI never checks more loosely
VERIFY_TOL = 1e-10
NULLSPACE_RTOL = 1e-8
# c_g of commutant_dim's generic element: k times this, mod 1, for k = 1, 2, ...
GOLDEN_FRACTION = (5 ** 0.5 - 1) / 2
# the largest stacked system commutant_dim solves: 256 MB complex
MAX_STACK_ENTRIES = 2 ** 24


class VerifierError(ValueError):
    pass


class DimensionMismatch(VerifierError):
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
        return dataclasses.asdict(self)


def _entry_norm(m):
    return float(np.max(np.abs(m))) if m.size else 0.0


def _forced(fam, tol):
    "elements whose projection is within tol of 0 or of I"
    eye = np.eye(fam.dimension)
    return [g for g, p in fam.projections.items()
            if _entry_norm(p) <= tol or _entry_norm(p - eye) <= tol]


def check_all(fam, tol=VERIFY_TOL):
    """Residuals of every axiom plus the structural verdicts in one report."""
    n = fam.dimension
    residuals = {}
    for g, p in fam.projections.items():
        if p.shape != (n, n):
            raise DimensionMismatch("projection for %r has shape %r, expected %r"
                                    % (g, p.shape, (n, n)))
        residuals["hermitian[%s]" % g] = _entry_norm(p - p.conj().T)
        residuals["idempotent[%s]" % g] = _entry_norm(p @ p - p)
    for g, h in sorted(fam.poset.relations):
        residuals["order[%s<%s]" % (g, h)] = _entry_norm(
            fam.projections[g] @ fam.projections[h] - fam.projections[g])
    residuals["orthoscalar"] = _entry_norm(fam.weighted_sum() - np.eye(n))
    return VerificationReport(residuals, commutant_dim(fam),
                              check_essential(fam, tol), _forced(fam, tol), tol)


def commutant_dim(fam):
    """Dimension over the complex field of {X : X P_g = P_g X for all g}.

    Such an X commutes with A = sum_g c_g P_g, c_g fixed and generic, so in A's
    eigenbasis V it is block-diagonal on clusters of A's eigenvalues, and the
    dimension is the nullity of X -> ([X, B_g])_g on those X, B_g = V* P_g V
    (Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math. 27 (2010)).
    Singleton clusters give the components of the graph joining i, j where some
    |B_g[i, j]| > tau = NULLSPACE_RTOL ||A||. Clusters join gaps up to n tau, or
    all of A unless the P_g are Hermitian within tau. Finer clusters can only
    undercount, so the join gap grows tenfold while the count is uncertain:
    while the graph's edges below 100 tau ||A|| / gap, the accuracy of A's
    eigenvectors, change it, or a singular value lies in (tau, 100 tau). A
    system of |G| n^2 sum m_i^2 entries above MAX_STACK_ENTRIES is refused.
    """
    ps = np.array(list(fam.projections.values()))
    n = fam.dimension
    c = np.modf(np.arange(1, len(ps) + 1) * GOLDEN_FRACTION)[0]
    w, v = np.linalg.eigh(np.tensordot(c, ps, axes=1))
    scale = np.max(np.abs(w))
    tau = NULLSPACE_RTOL * scale
    b = v.conj().T @ ps @ v
    gaps = np.diff(w)
    merge = n * tau if _entry_norm(ps - ps.swapaxes(1, 2).conj()) <= tau else np.inf
    while True:
        label = np.r_[0, np.cumsum(gaps > merge)]
        if label[-1] == n - 1:
            coupling = np.max(np.abs(b), axis=0)
            coupling = np.maximum(coupling, coupling.T)
            count = _components(coupling > tau)
            certain = count == _components(
                coupling > 100 * tau * scale / np.min(gaps, initial=np.inf))
        else:
            s = _block_singular_values(b, label)
            count = int(np.sum(s <= tau))
            certain = not np.any((s > tau) & (s < 100 * tau))
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
    """Singular values of X -> ([X, B_g])_g over X block-diagonal by label."""
    rows, cols = np.nonzero(label[:, None] == label)
    shape = (len(b), len(label), len(label), len(rows))
    if np.prod(shape) > MAX_STACK_ENTRIES:
        raise VerifierError("the exact commutant of %d projections at n = %d needs a "
                            "stack of %d entries, above the limit of %d"
                            % (*shape[:2], np.prod(shape), MAX_STACK_ENTRIES))
    # unknown k is X[rows[k], cols[k]]: its column is E B_g - B_g E, E its unit
    system = np.zeros(shape, dtype=complex)
    system[:, rows, :, np.arange(len(rows))] = b[:, cols, :].transpose(1, 0, 2)
    system[:, :, cols, np.arange(len(rows))] -= b[:, :, rows]
    return np.linalg.svd(system.reshape(-1, len(rows)), compute_uv=False)


def check_essential(fam, tol=VERIFY_TOL):
    """No projection near 0 or I, no comparable pair of equal projections."""
    return not _forced(fam, tol) and not any(
        _entry_norm(fam.projections[g] - fam.projections[h]) <= tol
        for g, h in fam.poset.relations)


def spectrum_match(fam, chain, tol=VERIFY_TOL):
    """Do the two layer spectra reproduce the chain's eigenvalue lists?"""
    if fam.split is None:
        raise VerifierError("family carries no split; cannot form the layer sums")
    return all(len(want) == fam.dimension and np.allclose(
        np.linalg.eigvalsh(fam.weighted_sum(part)), np.sort(want), atol=tol, rtol=0.0)
        for part, want in zip(fam.split, (chain.lambdas, chain.mus)))
