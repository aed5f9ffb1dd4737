"""Numerical certification: axioms, irreducibility, essentiality, spectra."""

import dataclasses

import numpy as np

# the residual every axiom must meet; the CLI never checks more loosely
VERIFY_TOL = 1e-10
NULLSPACE_RTOL = 1e-8
# c_g of commutant_dim's generic element: k times this, mod 1, for k = 1, 2, ...
GOLDEN_FRACTION = (5 ** 0.5 - 1) / 2
# the largest Kronecker stack commutant_dim's exact path builds: 256 MB complex
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
    for g, p in fam.projections.items():
        if p.shape != (n, n):
            raise DimensionMismatch("projection for %r has shape %r, expected %r"
                                    % (g, p.shape, (n, n)))
    residuals = {}
    for g, p in fam.projections.items():
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

    Each such X commutes with A = sum_g c_g P_g, c_g fixed and generic. When
    A has a simple spectrum, X is diagonal in A's eigenbasis V, and diag(x)
    commutes with every B_g = V* P_g V exactly when x_i = x_j wherever some
    B_g[i, j] is nonzero. The dimension is then the number of connected
    components of that coupling graph (Murota, Kanno, Kojima and Kojima,
    Japan J. Indust. Appl. Math. 27 (2010)), at O(|G| n^3) cost.

    The graph's answer is used only when it is certified: the P_g are
    Hermitian within tau = NULLSPACE_RTOL * ||A||, A's smallest eigen-gap
    exceeds n * tau, and dropping the edges below 100 * tau * ||A|| / gap
    leaves the count unchanged. Couplings below tau turn A's eigenvectors
    by up to tau * ||A|| / gap, so edges in that band cannot be trusted.
    Otherwise the exact O(n^6) Kronecker SVD decides, and a stack of more
    than MAX_STACK_ENTRIES entries raises VerifierError.
    """
    ps = np.array(list(fam.projections.values()))
    n = fam.dimension
    c = np.modf(np.arange(1, len(ps) + 1) * GOLDEN_FRACTION)[0]
    w, v = np.linalg.eigh(np.tensordot(c, ps, axes=1))
    scale = np.max(np.abs(w))
    tau = NULLSPACE_RTOL * scale
    gap = np.min(np.diff(w), initial=np.inf)
    if np.max(np.abs(ps - ps.conj().transpose(0, 2, 1))) <= tau and gap > n * tau:
        coupling = np.max(np.abs(v.conj().T @ ps @ v), axis=0)
        coupling = np.maximum(coupling, coupling.T)
        count = _components(coupling > tau)
        if count == _components(coupling > 100 * tau * scale / gap):
            return count
    return _kronecker_commutant_dim(ps)


def _components(adjacent):
    """Connected components of the graph with this symmetric adjacency."""
    unseen = np.ones(len(adjacent), dtype=bool)
    count = 0
    for start in range(len(adjacent)):
        if not unseen[start]:
            continue
        count += 1
        unseen[start] = False
        stack = [start]
        while stack:
            reached = np.flatnonzero(adjacent[stack.pop()] & unseen)
            unseen[reached] = False
            stack.extend(reached)
    return count


def _kronecker_commutant_dim(ps):
    """The exact path: nullity of the stacked kron(I, P) - kron(P^T, I)."""
    count, n = ps.shape[:2]
    if count * n ** 4 > MAX_STACK_ENTRIES:
        raise VerifierError(
            "the exact commutant of %d projections at n = %d needs a stack of "
            "%d entries, above the limit of %d" % (count, n, count * n ** 4,
                                                   MAX_STACK_ENTRIES))
    eye = np.eye(n)
    rows = [np.kron(eye, p) - np.kron(p.T, eye) for p in ps.astype(complex)]
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return int(np.sum(s <= NULLSPACE_RTOL * s[0]))


def check_essential(fam, tol=VERIFY_TOL):
    """No projection near 0 or I, no comparable pair of equal projections."""
    return not _forced(fam, tol) and not any(
        _entry_norm(fam.projections[g] - fam.projections[h]) <= tol
        for g, h in fam.poset.relations)


def spectrum_match(fam, chain, tol=VERIFY_TOL):
    """Do the two layer spectra reproduce the chain's eigenvalue lists?"""
    if fam.split is None:
        raise VerifierError("family carries no split; cannot form the layer sums")
    s1, s2 = fam.split
    eig1 = np.sort(np.linalg.eigvalsh(fam.weighted_sum(s1)))
    eig2 = np.sort(np.linalg.eigvalsh(fam.weighted_sum(s2)))
    if eig1.shape[0] != len(chain.lambdas):
        return False
    return (bool(np.allclose(eig1, np.sort(chain.lambdas), atol=tol, rtol=0.0))
            and bool(np.allclose(eig2, np.sort(chain.mus), atol=tol, rtol=0.0)))
