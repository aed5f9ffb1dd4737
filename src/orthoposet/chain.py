"""Interleaved lambda/mu eigenvalue chains: existence and dimension of irreducibles."""

import dataclasses
import math

from .poset import check_split, split_two_one_parameter
from .spectrum import (CONTINUOUS, DEFAULT_TOL, DISCRETE, OUTSIDE, Character,
                       SpectrumError, delta_of, membership, near_boundary)

DISCRETE_IN_DELTA1 = "DiscreteInDelta1"
DISCRETE_IN_DELTA2 = "DiscreteInDelta2"
ESCAPED = "Escaped"

DEFAULT_MAX_STEPS = 10000


class ChainEngineError(ValueError):
    pass


class NoRepresentation(ChainEngineError):
    pass


class ZeroLambdaCap(ChainEngineError):
    pass


class NonzeroLambdaCap(ChainEngineError):
    pass


class StepLimit(ChainEngineError):
    pass


class ChainContext:
    """Spectral data of the two one-parameter parts, plus the step constant."""

    def __init__(self, part1, chi1, part2, chi2, tol=DEFAULT_TOL):
        self.part1, self.chi1 = part1, chi1
        self.part2, self.chi2 = part2, chi2
        self.delta1 = delta_of(part1, chi1, tol)
        self.delta2 = delta_of(part2, chi2, tol)
        self.sigma1 = self.delta1.sigma
        self.sigma2 = self.delta2.sigma
        self.lambda_cap = self.sigma1 + self.sigma2 - 2.0
        self.tol = tol

    @property
    def total(self):
        return self.chi1.total + self.chi2.total


def make_context(p1, chi1, p2, chi2, tol=DEFAULT_TOL):
    return ChainContext(p1, chi1, p2, chi2, tol)


@dataclasses.dataclass(eq=False)
class EigenChain:
    """Alternating eigenvalue lists with equal lengths and a termination tag."""

    lambdas: list
    mus: list
    termination: str
    context: ChainContext = dataclasses.field(default=None, repr=False)
    boundary_ambiguous: bool = False

    @property
    def dimension(self):
        return len(self.lambdas)

    @property
    def start_point(self):
        return self.lambdas[0]

    def to_dict(self):
        return {"lambda0": self.start_point, "lambdas": self.lambdas,
                "mus": self.mus, "termination": self.termination,
                "dimension": self.dimension}


def run_degeneracy_filter(chi, tol=DEFAULT_TOL):
    """Apply the scalar-sum screens; returns the forced assignments.

    Forced values: "I" (weight sum exactly one), "0" (weight above one),
    "0|I" (weight exactly one: the projection is scalar in any irreducible).
    """
    if chi.total < 1.0 - tol:
        raise NoRepresentation("total weight %r is below one" % (chi.total,))
    if abs(chi.total - 1.0) <= tol:
        return [(g, "I") for g in chi.weights]
    forced = []
    for g, w in chi.weights.items():
        if w > 1.0 + tol:
            forced.append((g, "0"))
        elif abs(w - 1.0) <= tol:
            forced.append((g, "0|I"))
    return forced


def run_chain(ctx, lambda0, max_steps=DEFAULT_MAX_STEPS):
    """Iterate the link/reflection recurrence from a discrete starting eigenvalue.

    Link steps (x -> 1 - x) change the constraint set and get membership
    checks; reflection steps (x -> sigma - x) stay inside the same set, so
    a continuous value reflects to a continuous value and needs none.
    """
    tol = ctx.tol
    if abs(ctx.lambda_cap) <= tol:
        raise ZeroLambdaCap("lambda_cap %r is zero within tol" % (ctx.lambda_cap,))
    if membership(ctx.delta1, lambda0, tol) != DISCRETE:
        raise ChainEngineError("lambda0 = %r is not a discrete point of delta1" % (lambda0,))

    def finish(lambdas, mus, termination, ambiguous=False):
        return EigenChain(lambdas, mus, termination, ctx, ambiguous)

    lambdas, mus = [lambda0], []
    for _ in range(max_steps):
        mu = 1.0 - lambdas[-1]
        mus.append(mu)
        kind = membership(ctx.delta2, mu, tol)
        if kind == DISCRETE:
            return finish(lambdas, mus, DISCRETE_IN_DELTA2)
        if kind == OUTSIDE:
            return finish(lambdas, mus, ESCAPED, near_boundary(ctx.delta2, mu, 10 * tol))
        mus.append(ctx.sigma2 - mu)
        lam = 1.0 - mus[-1]
        lambdas.append(lam)
        kind = membership(ctx.delta1, lam, tol)
        if kind == DISCRETE:
            return finish(lambdas, mus, DISCRETE_IN_DELTA1)
        if kind == OUTSIDE:
            return finish(lambdas, mus, ESCAPED, near_boundary(ctx.delta1, lam, 10 * tol))
        lambdas.append(ctx.sigma1 - lam)
    raise StepLimit("no termination within %d steps" % (max_steps,))


@dataclasses.dataclass(eq=False)
class TwoPointFamily:
    """Description of the lambda_cap = 0 representations.

    one_dim lists the admissible lambda0 values; two_dim the length-2 chains
    with one diagonal layer discrete and the other a continuous pair block,
    reversals merged; c_interval is the open range of the center offset for the fully
    continuous two-dimensional series (None when absent).
    """

    one_dim: list
    two_dim: list
    c_interval: tuple
    context: ChainContext = dataclasses.field(repr=False)

    def to_dict(self):
        return {"sigma1": self.context.sigma1, "sigma2": self.context.sigma2,
                "one_dim": self.one_dim,
                "two_dim": [ch.to_dict() for ch in self.two_dim],
                "c_interval": list(self.c_interval) if self.c_interval else None}


def c_range(a1, a2, a3, a4):
    """(lo, hi), the open range of the continuous series' center offset c
    for the pair weights (a1, a2) and (a3, a4)."""
    return max(abs(a1 - a2), abs(a3 - a4)) / 2.0, min(a1 + a2, a3 + a4) / 2.0


def lambda_zero_case(ctx):
    """Describe the two-point spectrum families when lambda_cap = 0."""
    tol = ctx.tol
    if abs(ctx.lambda_cap) > tol:
        raise NonzeroLambdaCap("lambda_cap %r is not zero" % (ctx.lambda_cap,))
    one_dim, two_dim = [], []
    for lam0 in ctx.delta1.discrete:
        mu0 = 1.0 - lam0
        kind = membership(ctx.delta2, mu0, tol)
        if kind == DISCRETE:
            one_dim.append(lam0)
        elif kind == CONTINUOUS:
            lam1 = ctx.sigma1 - lam0
            if membership(ctx.delta1, lam1, tol) == DISCRETE:
                two_dim.append(EigenChain([lam0, lam1], [mu0, ctx.sigma2 - mu0],
                                          DISCRETE_IN_DELTA1, ctx))
    for mu0 in ctx.delta2.discrete:
        lam0 = 1.0 - mu0
        if membership(ctx.delta1, lam0, tol) != CONTINUOUS:
            continue
        mu1 = ctx.sigma2 - mu0
        if membership(ctx.delta2, mu1, tol) == DISCRETE:
            two_dim.append(EigenChain([lam0, ctx.sigma1 - lam0], [mu0, mu1],
                                      DISCRETE_IN_DELTA2, ctx))

    two_dim = _merge_reversals(two_dim)
    c_interval = None
    a1, a2 = ctx.delta1.pair_weights
    a3, a4 = ctx.delta2.pair_weights
    if a2 > 0 and a4 > 0:
        lo, hi = c_range(a1, a2, a3, a4)
        if hi - lo > tol:
            c_interval = (lo, hi)
    return TwoPointFamily(one_dim, two_dim, c_interval, ctx)


def enumerate_irreducibles(ctx):
    """All terminating chains from discrete starting points, reversals merged."""
    if abs(ctx.lambda_cap) <= ctx.tol:
        raise ZeroLambdaCap("use lambda_zero_case")
    chains = [run_chain(ctx, lam0) for lam0 in ctx.delta1.discrete]
    kept = _merge_reversals(ch for ch in chains if ch.termination != ESCAPED)
    kept.sort(key=lambda ch: ch.start_point)
    return kept


def _merge_reversals(chains):
    "chains without those that reverse an earlier one"
    kept = []
    for chain in chains:
        if not any(_is_reversal(chain, other) for other in kept):
            kept.append(chain)
    return kept


def _is_reversal(a, b):
    # the same representation is reached from either discrete end of the chain
    if a.dimension != b.dimension or a.termination != b.termination:
        return False
    slack = 10 * a.context.tol
    return (abs(a.lambdas[0] - b.lambdas[-1]) <= slack
            and abs(a.lambdas[-1] - b.lambdas[0]) <= slack)


def dimension_bound(ctx):
    """Upper bound for the length of a chain started at lambda0 = 0.

    A negative step constant is handled through the dual problem, whose
    step constant is -lambda_cap/(total - 1).
    """
    cap = ctx.lambda_cap
    if abs(cap) <= ctx.tol:
        return 2
    if cap < 0:
        if ctx.total <= 1.0 + ctx.tol:
            return None
        cap = -cap / (ctx.total - 1.0)
    return int(math.floor(1.0 / cap + 1.0 + 1e-9))


def pinned_set(p, chi, tol=DEFAULT_TOL):
    "Weight one or more, or below such: P_g = 0 in irreducibles above dimension 1"
    heavy = [g for g in p.elements if chi[g] >= 1.0 - tol]
    return set(heavy).union(*(p.down_set(g) for g in heavy))


def enumerate_dim1(p, chi, tol=DEFAULT_TOL):
    """All 0/1 solutions: indicator vectors of up-sets with unit weight.

    Pinned elements are listed only as singletons.
    """
    pinned = pinned_set(p, chi, tol)
    ups = p.induced(g for g in p.elements if g not in pinned).up_sets()
    ups += [frozenset([g]) for g in pinned if not p.up_set(g)]
    return sorted(tuple(1 if g in u else 0 for g in p.elements) for u in ups
                  if abs(sum(chi[g] for g in u) - 1.0) <= tol)


@dataclasses.dataclass(eq=False)
class Prediction:
    """What the theory predicts for a poset split into two parts.

    If the weight screen forced anything, scalar holds the 0/1 solutions and
    chains start at dimension 2. In "scalar" mode no chain can exist, and
    context and two_point are None. character holds the weights of p's
    elements, in the input's order; the screen saw only these.
    """

    forced: list
    mode: str
    scalar: list
    chains: list
    character: Character
    context: ChainContext = dataclasses.field(default=None, repr=False)
    two_point: TwoPointFamily = None


def predict(p, chi, split, tol=DEFAULT_TOL):
    """Check the split on p, screen the weights and run the chains.

    check_split runs first, whatever the weights. The parts then lose the
    pinned_set, and what is left of each must be one-parameter. If a part
    is left empty, as at total weight one, the mode is "scalar" and that
    check runs on p as given. Weights on other names are ignored.
    """
    for g in p.elements:
        if g not in chi:
            raise SpectrumError("missing weight for %r" % (g,))
    names = set(p.elements)
    chi = chi.restrict(g for g in chi.weights if g in names)
    check_split(p, split)
    # at total weight one or below no chain exists: every element is pinned
    pinned = names if chi.total <= 1.0 + tol else pinned_set(p, chi, tol)
    keep = [g for g in p.elements if g not in pinned]
    first = [g for g in split if g not in pinned]
    if not first or set(first) >= set(keep):
        split_two_one_parameter(p, split)
        forced = run_degeneracy_filter(chi, tol)
        return Prediction(forced, "scalar", enumerate_dim1(p, chi, tol), [], chi)
    part1, part2 = split_two_one_parameter(p.induced(keep) if pinned else p, first)
    forced = run_degeneracy_filter(chi, tol)
    ctx = ChainContext(part1, chi.restrict(part1.elements),
                       part2, chi.restrict(part2.elements), tol)
    two_point = None
    if abs(ctx.lambda_cap) <= tol:
        mode, two_point = "two-point", lambda_zero_case(ctx)
        chains = [EigenChain([v], [1.0 - v], DISCRETE_IN_DELTA2, ctx)
                  for v in two_point.one_dim] + two_point.two_dim
    else:
        mode, chains = "chains", enumerate_irreducibles(ctx)
    if forced:
        # the 0/1 solutions give dimension 1, pinned elements included
        chains = [ch for ch in chains if ch.dimension >= 2]
    scalar = enumerate_dim1(p, chi, tol) if forced else []
    return Prediction(forced, mode, scalar, chains, chi, ctx, two_point)
