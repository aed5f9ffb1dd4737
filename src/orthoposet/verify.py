"""Numerical certification: axioms, irreducibility, essentiality, spectra."""

import dataclasses

import numpy as np

NULLSPACE_RTOL = 1e-8


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


def check_all(fam, tol=1e-10):
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
    eye = np.eye(n)
    forced = [g for g, p in fam.projections.items()
              if _entry_norm(p) <= tol or _entry_norm(p - eye) <= tol]
    return VerificationReport(residuals, commutant_dim(fam),
                              check_essential(fam, tol), forced, tol)


def commutant_dim(fam):
    """Dimension over the complex field of {X : X P_g = P_g X for all g}."""
    n = fam.dimension
    eye = np.eye(n)
    rows = []
    for p in fam.projections.values():
        p = np.asarray(p, dtype=complex)
        rows.append(np.kron(eye, p) - np.kron(p.T, eye))
    stacked = np.vstack(rows)
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s <= NULLSPACE_RTOL * s[0]))


def check_essential(fam, tol=1e-10):
    """No projection near 0 or I, no comparable pair of equal projections."""
    eye = np.eye(fam.dimension)
    for p in fam.projections.values():
        if _entry_norm(p) <= tol or _entry_norm(p - eye) <= tol:
            return False
    for g, h in fam.poset.relations:
        if _entry_norm(fam.projections[g] - fam.projections[h]) <= tol:
            return False
    return True


def spectrum_match(fam, chain, tol=1e-10):
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
