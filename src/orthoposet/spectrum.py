"""Admissible spectra of weighted projection sums over one-parameter posets."""

import dataclasses
import json

from .poset import CHAIN_TAME, ONE_PARAMETER, WILD, NotTame, decompose

DISCRETE = "Discrete"
CONTINUOUS = "Continuous"
OUTSIDE = "Outside"

DEFAULT_TOL = 1e-9


class SpectrumError(ValueError):
    pass


class NotOneParameter(SpectrumError):
    pass


class OutsideContinuum(SpectrumError):
    pass


class SingularDenominator(SpectrumError):
    pass


class Character:
    """Strictly positive, finite weights on poset elements."""

    def __init__(self, weights):
        self.weights = {g: float(w) for g, w in dict(weights).items()}
        for g, w in self.weights.items():
            if not 0 < w < float("inf"):
                raise SpectrumError("weight for %r must be positive and finite, got %r" % (g, w))
        self.total = sum(self.weights.values())

    def __getitem__(self, g):
        return self.weights[g]

    def __contains__(self, g):
        return g in self.weights

    def restrict(self, elements):
        return Character({g: self.weights[g] for g in elements})

    def __repr__(self):
        return "Character(%r)" % (self.weights,)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        try:
            return cls(doc["weights"])
        except (TypeError, KeyError) as exc:
            raise SpectrumError("character document needs 'weights'") from exc

    def to_dict(self):
        return {"weights": self.weights}


@dataclasses.dataclass(frozen=True)
class DeltaSet:
    """Discrete ladder plus two open intervals; sigma is the symmetry center doubled.

    A chain without an incomparable pair is handled as the degenerate case
    with a phantom zero-weight partner at the bottom block: the continuous
    part is empty and the ladder holds every partial sum.
    """

    discrete: tuple
    continuous: tuple  # of (lo, hi) pairs
    sigma: float
    pair_weights: tuple
    upper_tail: float

    def to_dict(self):
        return {"discrete": list(self.discrete),
                "intervals": [list(iv) for iv in self.continuous],
                "sigma": self.sigma}


def delta_of(p, chi, tol=DEFAULT_TOL):
    """Spectral constraint set for sum(alpha_g P_g) over the poset p."""
    try:
        dec = decompose(p)
        kind = dec.kind
    except NotTame:
        kind = WILD
    if kind not in (ONE_PARAMETER, CHAIN_TAME):
        raise NotOneParameter("poset is %s; need OneParameter or ChainTame" % kind)
    if not p.elements:
        raise NotOneParameter("the empty poset has no spectrum")
    for g in p.elements:
        if g not in chi:
            raise SpectrumError("character missing weight for %r" % (g,))
    blocks = dec.blocks

    def bw(b):
        return sum(chi[g] for g in b)

    if dec.pair_index is not None:
        k = dec.pair_index
        a1, a2 = chi[blocks[k][0]], chi[blocks[k][1]]
    else:
        k, a1, a2 = 0, bw(blocks[0]), 0.0
    upper = sum(bw(b) for b in blocks[k + 1:])

    points = [0.0]
    acc = 0.0
    for b in reversed(blocks[k + 1:]):
        acc += bw(b)
        points.append(acc)
    points += [upper + a1, upper + a2, upper + a1 + a2]
    acc = upper + a1 + a2
    for b in reversed(blocks[:k]):
        acc += bw(b)
        points.append(acc)
    points.sort()
    discrete = [points[0]]
    for x in points[1:]:
        if x - discrete[-1] > tol:
            discrete.append(x)

    lo, hi = min(a1, a2), max(a1, a2)
    continuous = tuple(iv for iv in ((upper, upper + lo), (upper + hi, upper + a1 + a2))
                       if iv[1] - iv[0] > tol)
    sigma = a1 + a2 + 2.0 * upper
    return DeltaSet(tuple(discrete), continuous, sigma, (a1, a2), upper)


def membership(d, x, tol=DEFAULT_TOL):
    """Locate x in d: Discrete wins ties, Continuous needs tol-clearance."""
    if any(abs(x - p) <= tol for p in d.discrete):
        return DISCRETE
    for lo, hi in d.continuous:
        if lo + tol < x < hi - tol:
            return CONTINUOUS
    return OUTSIDE


def near_boundary(d, x, margin):
    "true when x sits within margin of a discrete point or interval endpoint"
    if any(abs(x - p) <= margin for p in d.discrete):
        return True
    return any(abs(x - lo) <= margin or abs(x - hi) <= margin for lo, hi in d.continuous)


def epsilon_pair(a1, a2, mu, tol=DEFAULT_TOL):
    "diagonal offsets of the 2x2 pair blocks with weighted sum diag(mu, a1+a2-mu)"
    denom = 2.0 * mu - a1 - a2
    if abs(denom) <= tol:
        raise SingularDenominator("2*mu = %r is within tol of a1 + a2 = %r" % (2 * mu, a1 + a2))
    eps1 = (2.0 * mu * mu - (2.0 * mu - a1) * (a1 + a2)) / (a1 * denom)
    eps2 = (2.0 * mu * mu - (2.0 * mu - a2) * (a1 + a2)) / (a2 * denom)
    return eps1, eps2


def restore_epsilon(d, lam, tol=DEFAULT_TOL):
    """Offsets (eps1, eps2) of the pair block carrying eigenvalue lam of the sum.

    The singularity test runs first so a midpoint hit reports
    SingularDenominator even when it coincides with a discrete point.
    """
    a1, a2 = d.pair_weights
    mu = lam - d.upper_tail
    if abs(2.0 * mu - a1 - a2) <= tol:
        raise SingularDenominator("lam = %r is the center sigma/2" % (lam,))
    if membership(d, lam, tol) != CONTINUOUS:
        raise OutsideContinuum("lam = %r is not interior to the continuous part" % (lam,))
    return epsilon_pair(a1, a2, mu, tol)
