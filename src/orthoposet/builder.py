"""Explicit projection families for eigenvalue chains and the continuous series."""

import dataclasses
import itertools
import json
import math

import numpy as np

from .chain import ESCAPED, c_range
from .poset import CATALOG, Poset, decompose, is_isomorphic
from .poset import dual as dual_poset
from .spectrum import (CONTINUOUS, DEFAULT_TOL, DISCRETE, Character,
                       membership, restore_epsilon)

PLUS = "plus"
MINUS = "minus"


class BuilderError(ValueError):
    pass


class TauOutOfRange(BuilderError):
    pass


class DeltaUnsolvable(BuilderError):
    pass


class ChainShapeMismatch(BuilderError):
    pass


class SumNotTwo(BuilderError):
    pass


class COutOfRange(BuilderError):
    pass


class SumNotExceedingOne(BuilderError):
    pass


@dataclasses.dataclass(frozen=True)
class BasicPairParams:
    tau: float
    sign: str = PLUS

    def __post_init__(self):
        if self.sign not in (PLUS, MINUS):
            raise BuilderError("sign must be %r or %r" % (PLUS, MINUS))


def basic_pair(params):
    """Rank-one 2x2 projection with diagonal offset tau.

    The minus sign flips the off-diagonal entry, so a plus/minus pair with
    the same tau has a diagonal weighted sum. The offset may be negative:
    block parameters sweep the whole open interval (-1, 1).
    """
    tau = params.tau
    if not -1.0 < tau < 1.0:
        raise TauOutOfRange("tau = %r is not interior to (-1, 1)" % (tau,))
    off = math.sqrt(1.0 - tau * tau) / 2.0
    if params.sign == MINUS:
        off = -off
    return np.array([[(1.0 + tau) / 2.0, off], [off, (1.0 - tau) / 2.0]])


class ProjectionFamily:
    """Projection matrices indexed by poset elements, with their character.

    split records the two one-parameter parts the family was built from,
    as a pair of element tuples; block_params the 2x2 offsets per layer.
    """

    def __init__(self, poset, character, projections, split=None, block_params=None):
        self.poset = poset
        self.character = character
        self.projections = {g: np.asarray(m) for g, m in projections.items()}
        first = next(iter(self.projections.values()))
        self.dimension = first.shape[0]
        self.split = split
        self.block_params = block_params or {}

    def weighted_sum(self, elements=None):
        if elements is None:
            elements = self.poset.elements
        total = np.zeros((self.dimension, self.dimension), dtype=complex)
        for g in elements:
            total = total + self.character[g] * self.projections[g]
        return total

    def to_dict(self):
        cs = {g: np.asarray(m, dtype=complex) for g, m in self.projections.items()}
        return {"dimension": int(self.dimension),
                "projections": {g: np.stack([c.real, c.imag], axis=-1).tolist()
                                for g, c in cs.items()},
                "character": self.character.to_dict()}

    @classmethod
    def from_json(cls, text, poset, split=None):
        """Read the JSON of a to_dict document. It must give a weight and
        one square matrix of a common size for each element of poset, and
        no matrix for anything else."""
        doc = json.loads(text)
        try:
            weights = doc["character"]["weights"]
            projections = {g: np.array([[complex(re, im) for re, im in row] for row in rows])
                           for g, rows in doc["projections"].items()}
        except (TypeError, KeyError, ValueError) as exc:
            raise BuilderError("family document needs 'character' weights and "
                               "'projections' with [re, im] entries") from exc
        character = Character(weights)
        if set(projections) != set(poset.elements) or not projections:
            raise BuilderError("family projections %r do not match the poset elements %r"
                               % (sorted(projections), list(poset.elements)))
        missing = [g for g in poset.elements if g not in character]
        if missing:
            raise BuilderError("family character misses weights for %r" % (missing,))
        shapes = {m.shape for m in projections.values()}
        shape = next(iter(shapes))
        if len(shapes) != 1 or len(shape) != 2 or shape[0] != shape[1]:
            raise BuilderError("projections must be square matrices of one size, got %r"
                               % (sorted(shapes),))
        projections = {g: m.real if np.all(m.imag == 0) else m
                       for g, m in projections.items()}
        return cls(poset, character, projections, split)


def _layout(values, delta, tol):
    """Split chain coordinates into discrete singletons and reflection pairs."""
    singles, blocks = [], []
    i = 0
    while i < len(values):
        if membership(delta, values[i], tol) == DISCRETE:
            singles.append(i)
            i += 1
            continue
        if i + 1 == len(values) or membership(delta, values[i + 1], tol) != CONTINUOUS:
            raise BuilderError("continuous value %r at position %d has no reflection partner"
                               % (values[i], i))
        if abs(values[i] + values[i + 1] - delta.sigma) > 1e-6:
            raise BuilderError("values %r, %r do not reflect about sigma/2"
                               % (values[i], values[i + 1]))
        blocks.append((i, i + 1))
        i += 2
    return singles, blocks


class _PartPlan:
    """Per-layer assembly data: pair block offsets and singleton branch choices."""

    def __init__(self, part, chi, delta, values, tol):
        self.part = part
        self.chi = chi
        dec = decompose(part)
        self.pair = dec.blocks[dec.pair_index] if dec.pair_index is not None else None
        self.singles, self.blocks = _layout(values, delta, tol)
        if self.blocks and self.pair is None:
            raise BuilderError("part %r has no incomparable pair for continuous values"
                               % (list(part.elements),))
        self.params = [restore_epsilon(delta, values[i], tol) for i, _ in self.blocks]
        self.choices = {}
        up_sets = part.up_sets()
        for i in self.singles:
            fits = [u for u in up_sets
                    if abs(sum(chi[g] for g in u) - values[i]) <= 10 * tol]
            if not fits:
                raise DeltaUnsolvable("no up-set of %r has weight %r"
                                      % (list(part.elements), values[i]))
            self.choices[i] = fits

    def branches(self):
        keys = list(self.singles)
        for combo in itertools.product(*(self.choices[i] for i in keys)):
            yield dict(zip(keys, combo))

    def matrix(self, g, branch, n):
        m = np.zeros((n, n))
        for (i, j), (e1, e2) in zip(self.blocks, self.params):
            if g == self.pair[0]:
                m[i:j + 1, i:j + 1] = basic_pair(BasicPairParams(e1, PLUS))
            elif g == self.pair[1]:
                m[i:j + 1, i:j + 1] = basic_pair(BasicPairParams(e2, MINUS))
            elif self.part.less(self.pair[0], g):
                m[i, i] = m[j, j] = 1.0
        for i in self.singles:
            if g in branch[i]:
                m[i, i] = 1.0
        return m


def disjoint_union(p1, p2):
    shared = set(p1.elements) & set(p2.elements)
    if shared:
        raise BuilderError("parts share elements %r" % (sorted(shared),))
    return Poset(p1.elements + p2.elements, list(p1.relations) + list(p2.relations))


def build_from_chain(chain):
    """Assemble every projection family realizing a terminated chain.

    The list holds one family per combination of admissible up-set choices
    at the discrete coordinates; equal pair weights typically give two.
    """
    ctx = chain.context
    if ctx is None:
        raise BuilderError("chain carries no context")
    if chain.termination == ESCAPED:
        raise BuilderError("an escaped chain admits no representation")
    n = chain.dimension
    plan1 = _PartPlan(ctx.part1, ctx.chi1, ctx.delta1, chain.lambdas, ctx.tol)
    plan2 = _PartPlan(ctx.part2, ctx.chi2, ctx.delta2, chain.mus, ctx.tol)
    full = disjoint_union(ctx.part1, ctx.part2)
    character = Character(dict(ctx.chi1.weights, **ctx.chi2.weights))
    split = (ctx.part1.elements, ctx.part2.elements)
    block_params = {"p": [e for e, _ in plan1.params], "q": [e for _, e in plan1.params],
                    "r": [e for e, _ in plan2.params], "s": [e for _, e in plan2.params]}
    families = []
    for br1 in plan1.branches():
        for br2 in plan2.branches():
            projections = {}
            for g in ctx.part1.elements:
                projections[g] = plan1.matrix(g, br1, n)
            for g in ctx.part2.elements:
                projections[g] = plan2.matrix(g, br2, n)
            families.append(ProjectionFamily(full, character, projections,
                                             split, dict(block_params)))
    return families


def _bare_pair(part):
    return len(part.elements) == 2 and not part.relations


def build_quadruple(chain, alphas):
    """Families over the four incomparable elements; list covers the delta branches."""
    ctx = chain.context
    if ctx is None or not (_bare_pair(ctx.part1) and _bare_pair(ctx.part2)):
        raise BuilderError("chain context is not a pair of bare incomparable pairs")
    expected = [ctx.chi1[g] for g in ctx.part1.elements]
    expected += [ctx.chi2[g] for g in ctx.part2.elements]
    if len(alphas) != 4 or any(abs(a - e) > ctx.tol for a, e in zip(alphas, expected)):
        raise BuilderError("alphas %r do not match the chain context weights %r"
                           % (list(alphas), expected))
    return build_from_chain(chain)


def build_quadruple_continuous(alphas, c, gamma, tol=DEFAULT_TOL,
                               parts=(("g1", "g2"), ("g3", "g4"))):
    """Two-dimensional family of the zero-step continuous series.

    The sum of the four weights must be two; c is the common offset of the
    two layer spectra from their centers, gamma the relative phase on the
    second layer. parts names the two incomparable pairs, in the order of
    alphas.
    """
    parts = tuple(tuple(part) for part in parts)
    if [len(part) for part in parts] != [2, 2]:
        raise BuilderError("the continuous series needs two pairs, got parts %r"
                           % ([list(part) for part in parts],))
    names = parts[0] + parts[1]
    a1, a2, a3, a4 = [float(a) for a in alphas]
    if abs(a1 + a2 + a3 + a4 - 2.0) > tol:
        raise SumNotTwo("weights sum to %r, need 2" % (a1 + a2 + a3 + a4,))
    lo, hi = c_range(a1, a2, a3, a4)
    if not lo + tol < c < hi - tol:
        raise COutOfRange("c = %r is outside (%r, %r)" % (c, lo, hi))
    gamma = complex(gamma)
    if not abs(abs(gamma) - 1.0) <= tol:  # also rejects nan
        raise BuilderError("gamma = %r is not unimodular" % (gamma,))

    lams = [(a1 * a1 - a2 * a2 + 4 * c * c) / (4 * c * a1),
            (a2 * a2 - a1 * a1 + 4 * c * c) / (4 * c * a2),
            (a3 * a3 - a4 * a4 + 4 * c * c) / (4 * c * a3),
            (a4 * a4 - a3 * a3 + 4 * c * c) / (4 * c * a4)]
    phase = gamma if gamma.imag else gamma.real  # real gamma, real matrices
    # the second layer flips its diagonal so the two layer sums add to I;
    # its off-diagonal carries the phase, and the minus sign with it
    matrices = [basic_pair(BasicPairParams(tau, sign)).astype(type(phase))
                for tau, sign in ((lams[0], PLUS), (lams[1], MINUS),
                                  (-lams[2], PLUS), (-lams[3], PLUS))]
    for m, factor in zip(matrices[2:], (phase, -phase)):
        m[0, 1] *= factor
        m[1, 0] = np.conj(m[0, 1])
    return ProjectionFamily(Poset(names, []), Character(dict(zip(names, alphas))),
                            dict(zip(names, matrices)), split=parts)


def _top_singleton_weights(part, chi):
    "weights of the singleton blocks above the pair, bottom-to-top"
    dec = decompose(part)
    return [chi[b[0]] for b in dec.blocks[dec.pair_index + 1:]]


def lift_to_catalog(target, chain):
    """Every family of a chain on the named catalog poset.

    The chain must come from a context whose parts union to the target
    poset, and its ends must have the target's shape.
    """
    ctx = chain.context
    if ctx is None:
        raise BuilderError("chain carries no context")
    if target not in ("a2", "a4", "a6"):
        raise BuilderError("unknown lift target %r" % (target,))
    full = disjoint_union(ctx.part1, ctx.part2)
    if not is_isomorphic(full, CATALOG[target]):
        raise BuilderError("chain context does not form the %s poset" % (target,))

    slack = 10 * ctx.tol
    last_lam, last_mu = chain.lambdas[-1], chain.mus[-1]
    d1, d2 = ctx.delta1, ctx.delta2
    a1, a2 = d1.pair_weights
    a3, a4 = d2.pair_weights
    tops1 = _top_singleton_weights(ctx.part1, ctx.chi1)
    if target == "a2":
        a5 = tops1[0]
        ok = (chain.termination == "DiscreteInDelta1"
              and any(abs(last_lam - v) <= slack for v in (a5, a1 + a5, a2 + a5)))
        ok = ok or (chain.termination == "DiscreteInDelta2"
                    and any(abs(last_mu - v) <= slack for v in (0.0, a3, a4)))
    elif target == "a4":
        ok = chain.termination == "DiscreteInDelta2" and abs(last_mu) <= slack
    else:
        a6 = tops1[-1]
        ok = chain.termination == "DiscreteInDelta1" and abs(last_lam - a6) <= slack
    if not ok:
        raise ChainShapeMismatch("chain ends (%r, %r, %s); not a %s shape"
                                 % (last_lam, last_mu, chain.termination, target))

    return build_from_chain(chain)


def dualize(fam, tol=DEFAULT_TOL):
    """Complementary family on the dual poset; involutive on its domain."""
    total = fam.character.total
    if total <= 1.0 + tol:
        raise SumNotExceedingOne("character total %r must exceed one" % (total,))
    scale = 1.0 / (total - 1.0)
    eye = np.eye(fam.dimension)
    projections = {g: eye - p for g, p in fam.projections.items()}
    character = Character({g: w * scale for g, w in fam.character.weights.items()})
    return ProjectionFamily(dual_poset(fam.poset), character, projections, split=fam.split)
