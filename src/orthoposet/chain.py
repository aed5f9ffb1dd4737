"""Interleaved lambda/mu eigenvalue chains: existence and dimension of irreducibles."""

import dataclasses
import math

from .poset import check_one_parameter, check_split
from .spectrum import DEFAULT_TOL, DISCRETE, OUTSIDE, Character, delta_of, membership

DISCRETE_IN_DELTA1 = "DiscreteInDelta1"
DISCRETE_IN_DELTA2 = "DiscreteInDelta2"
ESCAPED = "Escaped"

MAX_STEPS = 10000


class ChainEngineError(ValueError):
    pass


class NoRepresentation(ChainEngineError):
    pass


class ZeroLambdaCap(ChainEngineError):
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


@dataclasses.dataclass(eq=False)
class EigenChain:
    """Alternating eigenvalue lists with equal lengths and a termination tag."""

    lambdas: list
    mus: list
    termination: str
    context: ChainContext = dataclasses.field(repr=False)

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


def _walk(ctx, x0, from_delta2, steps):
    """The chain from x0, a discrete point of delta2 if from_delta2 else of
    delta1, or None if it has not ended within steps steps. A step is two
    half steps, onto the other side and back: a link (x -> 1 - x) of the
    other side's last value, checked, and for a continuous value a
    reflection (x -> sigma - x), which needs no check."""
    lambdas, mus = ([], [x0]) if from_delta2 else ([x0], [])
    halves = ((mus, lambdas, ctx.delta2, DISCRETE_IN_DELTA2),
              (lambdas, mus, ctx.delta1, DISCRETE_IN_DELTA1))
    if from_delta2:
        halves = halves[::-1]
    for _ in range(steps):
        for values, other, delta, end in halves:
            x = 1.0 - other[-1]
            values.append(x)
            kind = membership(delta, x, ctx.tol)
            if kind == DISCRETE:
                return EigenChain(lambdas, mus, end, ctx)
            if kind == OUTSIDE:
                return EigenChain(lambdas, mus, ESCAPED, ctx)
            values.append(delta.sigma - x)
    return None


def run_chain(ctx, lambda0):
    "Walk the link/reflection recurrence from a discrete point of delta1."
    tol, cap = ctx.tol, ctx.lambda_cap
    if abs(cap) <= tol:
        raise ZeroLambdaCap("lambda_cap %r is zero within tol; use lambda_zero_case" % (cap,))
    if membership(ctx.delta1, lambda0, tol) != DISCRETE:
        raise ChainEngineError("lambda0 = %r is not a discrete point of delta1" % (lambda0,))
    chain = _walk(ctx, lambda0, False, MAX_STEPS)
    if chain is None:
        raise ChainEngineError(
            "no termination within %d steps from lambda0 = %r: each step moves lambda "
            "by lambda_cap = %r within [0, 1], so the chain ends within %d steps"
            % (MAX_STEPS, lambda0, cap, math.floor(1.0 / abs(cap)) + 1))
    return chain


@dataclasses.dataclass(eq=False)
class TwoPointFamily:
    """Description of the lambda_cap = 0 representations.

    chains lists the one-dimensional chains, then the length-2 ones with
    one diagonal layer discrete and the other a continuous pair block,
    reversals merged; c_interval is the open range of the center offset for the fully
    continuous two-dimensional series (None when absent).
    """

    chains: list
    c_interval: tuple
    context: ChainContext = dataclasses.field(repr=False)

    def to_dict(self):
        return {"sigma1": self.context.sigma1, "sigma2": self.context.sigma2,
                "one_dim": [ch.start_point for ch in self.chains if ch.dimension == 1],
                "two_dim": [ch.to_dict() for ch in self.chains if ch.dimension == 2],
                "c_interval": list(self.c_interval) if self.c_interval else None}


def c_range(a1, a2, a3, a4):
    """(lo, hi), the open range of the continuous series' center offset c
    for the pair weights (a1, a2) and (a3, a4)."""
    return max(abs(a1 - a2), abs(a3 - a4)) / 2.0, min(a1 + a2, a3 + a4) / 2.0


def lambda_zero_case(ctx):
    """Describe the two-point spectrum families when lambda_cap = 0."""
    tol = ctx.tol
    if abs(ctx.lambda_cap) > tol:
        raise ChainEngineError("lambda_cap %r is not zero" % (ctx.lambda_cap,))
    # the walk is 2-periodic here, so one step decides it; a walk from
    # delta2 that ends in delta1 is the reversal of one from delta1
    ended = [ch for ch in (_walk(ctx, x0, False, 1) for x0 in ctx.delta1.discrete)
             if ch is not None and ch.termination != ESCAPED]
    ended += [ch for ch in (_walk(ctx, x0, True, 1) for x0 in ctx.delta2.discrete)
              if ch is not None and ch.termination == DISCRETE_IN_DELTA2]
    chains = ([ch for ch in ended if ch.dimension == 1]
              + _merge_reversals(ch for ch in ended if ch.dimension == 2))
    c_interval = None
    a1, a2 = ctx.delta1.pair_weights
    a3, a4 = ctx.delta2.pair_weights
    if a2 > 0 and a4 > 0:
        lo, hi = c_range(a1, a2, a3, a4)
        if hi - lo > tol:
            c_interval = (lo, hi)
    return TwoPointFamily(chains, c_interval, ctx)


def enumerate_irreducibles(ctx):
    """All terminating chains from discrete starting points, reversals merged.
    At a zero lambda_cap, run_chain raises ZeroLambdaCap on delta1's 0.0."""
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
    """Upper bound for (dimension - 1) // 2 of a chain started at lambda0 = 0,
    the figure criterion 2 compares; it does not bound the dimension itself.

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

    Pinned elements are listed only as singletons; the other up-sets are
    those of the rest whose weight, summed in element order, is 1 within tol.
    """
    pinned = pinned_set(p, chi, tol)
    rest = p.induced(g for g in p.elements if g not in pinned)
    ups = rest.up_sets(chi, 1.0, tol)
    ups += [frozenset([g]) for g in pinned
            if not p.up_set(g) and abs(chi[g] - 1.0) <= tol]
    return sorted(tuple(1 if g in u else 0 for g in p.elements) for u in ups)


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
    pinned_set, and what is left of each must be one-parameter; a part left
    empty passes. The mode is "scalar" when the total weight is at most one
    or a part is left empty. Weights on other names are ignored.
    """
    names = set(p.elements)
    chi = chi.restrict(g for g in chi.weights if g in names)
    pinned = pinned_set(p, chi, tol)
    part1, part2 = (check_one_parameter(p.induced(set(part) - pinned))
                    for part in check_split(p, split))
    forced = run_degeneracy_filter(chi, tol)
    # if the screen forced anything, dimension 1 is the 0/1 solutions,
    # pinned elements included, and the chains keep dimension 2 and up
    scalar = enumerate_dim1(p, chi, tol) if forced else []
    # at total weight one or below no chain exists
    if chi.total <= 1.0 + tol or not (part1.elements and part2.elements):
        return Prediction(forced, "scalar", scalar, [], chi)
    ctx = ChainContext(part1, chi.restrict(part1.elements),
                       part2, chi.restrict(part2.elements), tol)
    two_point = None
    if abs(ctx.lambda_cap) <= tol:
        mode, two_point = "two-point", lambda_zero_case(ctx)
        chains = two_point.chains
    else:
        mode, chains = "chains", enumerate_irreducibles(ctx)
    if forced:
        chains = [ch for ch in chains if ch.dimension >= 2]
    return Prediction(forced, mode, scalar, chains, chi, ctx, two_point)
