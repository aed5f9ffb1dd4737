"""Explicit projection families for eigenvalue chains and the continuous series."""

import itertools
import math
import types

import numpy as np

from .chain import DISCRETE_IN_DELTA1, DISCRETE_IN_DELTA2, ESCAPED, c_range
from .poset import CATALOG, Poset, decompose, disjoint_union, is_isomorphic
from .poset import dual as dual_poset
from .spectrum import (CONTINUOUS, DEFAULT_TOL, DISCRETE, Character,
                       SpectrumError, json_float, membership, restore_epsilon)

PLUS = "plus"
MINUS = "minus"


class BuilderError(ValueError):
    pass


def basic_pair(tau, sign=PLUS):
    """Rank-one 2x2 projection with diagonal offset tau.

    The minus sign flips the off-diagonal entry, so a plus/minus pair with
    the same tau has a diagonal weighted sum. The offset may be negative:
    block parameters sweep the whole open interval (-1, 1).
    """
    return _write_pair(np.zeros((2, 2)), 0, tau, sign)


def _write_pair(m, i, tau, sign):
    "write basic_pair(tau, sign) into m[i:i + 2, i:i + 2] entry by entry; return m"
    if sign not in (PLUS, MINUS):
        raise BuilderError("sign must be %r or %r" % (PLUS, MINUS))
    if not -1.0 < tau < 1.0:
        raise BuilderError("tau = %r is not interior to (-1, 1)" % (tau,))
    off = math.sqrt(1.0 - tau * tau) / 2.0
    if sign == MINUS:
        off = -off
    m[i, i] = (1.0 + tau) / 2.0
    m[i, i + 1] = m[i + 1, i] = off
    m[i + 1, i + 1] = (1.0 - tau) / 2.0
    return m


class ProjectionFamily:
    """Projection matrices indexed by poset elements, with their character.

    stack holds the matrices, n >= 1, as one (|G|, n, n) array of one
    dtype, in the order given, and projections is a read-only mapping from
    each element to its row of it. split records the two one-parameter
    parts the family was built from, as a pair of element tuples;
    block_params the 2x2 offsets per layer.
    """

    def __init__(self, poset, character, projections, split=None, block_params=None):
        shapes = {np.shape(m) for m in projections.values()}
        shape = next(iter(shapes), ())
        if len(shapes) != 1 or len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise BuilderError("projections must be square matrices of one size, got %r"
                               % (sorted(shapes),))
        self.poset = poset
        self.character = character
        self.stack = np.array(list(projections.values()))
        self.projections = types.MappingProxyType(dict(zip(projections, self.stack)))
        self.dimension = shape[0]
        self.split = split
        self.block_params = block_params or {}

    def weighted_sum(self, elements=None):
        if elements is None:
            elements = self.poset.elements
        total = np.zeros((self.dimension, self.dimension), dtype=complex)
        for g in elements:
            total = total + self.character[g] * self.projections[g]
        return total

    def to_arrays(self):
        "to_dict(), but each projection a float64 (n, n, 2) array of [re, im]"
        pairs = np.asarray(self.stack, complex).view(float).reshape(self.stack.shape + (2,))
        return {"dimension": int(self.dimension),
                "projections": dict(zip(self.projections, pairs)),
                "character": self.character.to_dict()}

    def to_dict(self):
        doc = self.to_arrays()
        doc["projections"] = {g: m.tolist() for g, m in doc["projections"].items()}
        return doc

    @classmethod
    def from_dict(cls, doc, poset):
        """Read a to_dict document. It must give a weight and one square
        matrix of a common size for each element of poset, and no matrix
        for anything else; weights and entries are JSON numbers."""
        try:
            character = doc["character"]
            projections = {g: _matrix(rows, "entry of the projection for %r" % (g,))
                           for g, rows in doc["projections"].items()}
        except SpectrumError:
            raise
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            raise BuilderError("family document needs 'character' weights and "
                               "'projections' with [re, im] entries") from exc
        character = Character.from_dict(character)
        if set(projections) != set(poset.elements) or not projections:
            raise BuilderError("family projections %r do not match the poset elements %r"
                               % (sorted(projections), list(poset.elements)))
        missing = [g for g in poset.elements if g not in character]
        if missing:
            raise BuilderError("family character misses weights for %r" % (missing,))
        if not any(m.imag.any() for m in projections.values()):
            projections = {g: m.real for g, m in projections.items()}
        return cls(poset, character, projections)


def _matrix(rows, what):
    "the complex matrix with these rows of [re, im] JSON numbers; what names an entry"
    return np.array([[complex(json_float(re, what), json_float(im, what)) for re, im in row]
                     for row in rows])


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
    """Per-layer assembly data: pair block offsets, and as the branch choices
    at each discrete coordinate the part's up-sets whose weight, summed in
    element order, lies within 10 tol of the coordinate."""

    def __init__(self, part, chi, delta, values, tol):
        self.part = part
        dec = decompose(part)
        self.pair = dec.blocks[dec.pair_index] if dec.pair_index is not None else None
        self.singles, self.blocks = _layout(values, delta, tol)
        self.params = [restore_epsilon(delta, values[i], tol) for i, _ in self.blocks]
        self.choices = {}
        for i in self.singles:
            fits = part.up_sets(chi, values[i], 10 * tol)
            if not fits:
                raise BuilderError("no up-set of %r has weight %r"
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
                _write_pair(m, i, e1, PLUS)
            elif g == self.pair[1]:
                _write_pair(m, i, e2, MINUS)
            elif self.part.less(self.pair[0], g):
                m[i, i] = m[j, j] = 1.0
        for i in self.singles:
            if g in branch[i]:
                m[i, i] = 1.0
        return m


def build_from_chain(chain):
    """Assemble every projection family realizing a terminated chain.

    The list holds one family per combination of admissible up-set choices
    at the discrete coordinates; equal pair weights typically give two.
    """
    ctx = chain.context
    if chain.termination == ESCAPED:
        raise BuilderError("an escaped chain admits no representation")
    n = chain.dimension
    plans = [_PartPlan(ctx.part1, ctx.chi1, ctx.delta1, chain.lambdas, ctx.tol),
             _PartPlan(ctx.part2, ctx.chi2, ctx.delta2, chain.mus, ctx.tol)]
    full = disjoint_union(ctx.part1, ctx.part2)
    character = Character(dict(ctx.chi1.weights, **ctx.chi2.weights))
    split = (ctx.part1.elements, ctx.part2.elements)
    params1, params2 = plans[0].params, plans[1].params
    block_params = {"p": [e for e, _ in params1], "q": [e for _, e in params1],
                    "r": [e for e, _ in params2], "s": [e for _, e in params2]}
    families = []
    for branches in itertools.product(*(plan.branches() for plan in plans)):
        projections = {g: plan.matrix(g, branch, n)
                       for plan, branch in zip(plans, branches) for g in plan.part.elements}
        families.append(ProjectionFamily(full, character, projections,
                                         split, dict(block_params)))
    return families


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
        raise BuilderError("weights sum to %r, need 2" % (a1 + a2 + a3 + a4,))
    lo, hi = c_range(a1, a2, a3, a4)
    if not lo + tol < c < hi - tol:
        raise BuilderError("c = %r is outside (%r, %r)" % (c, lo, hi))
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
    matrices = [basic_pair(tau, sign).astype(type(phase))
                for tau, sign in ((lams[0], PLUS), (lams[1], MINUS),
                                  (-lams[2], PLUS), (-lams[3], PLUS))]
    for m, factor in zip(matrices[2:], (phase, -phase)):
        m[0, 1] *= factor
        m[1, 0] = np.conj(m[0, 1])
    return ProjectionFamily(Poset(names, []), Character(dict(zip(names, alphas))),
                            dict(zip(names, matrices)), split=parts)


def lift_to_catalog(target, chain):
    """Every family of a chain on the named catalog poset.

    The chain must come from a context whose parts union to the target
    poset (for a2 and a6, the part with elements above its pair first),
    and its ends must have the target's shape.
    """
    ctx = chain.context
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
    dec = decompose(ctx.part1)
    tops1 = [ctx.chi1[b[0]] for b in dec.blocks[dec.pair_index + 1:]]  # above the pair
    if not tops1 and target != "a4":
        raise BuilderError("first part %r has nothing above its pair; not a %s shape"
                           % (list(ctx.part1.elements), target))
    if target == "a2":
        a5 = tops1[0]
        ok = (chain.termination == DISCRETE_IN_DELTA1
              and any(abs(last_lam - v) <= slack for v in (a5, a1 + a5, a2 + a5)))
        ok = ok or (chain.termination == DISCRETE_IN_DELTA2
                    and any(abs(last_mu - v) <= slack for v in (0.0, a3, a4)))
    elif target == "a4":
        ok = chain.termination == DISCRETE_IN_DELTA2 and abs(last_mu) <= slack
    else:
        a6 = tops1[-1]
        ok = chain.termination == DISCRETE_IN_DELTA1 and abs(last_lam - a6) <= slack
    if not ok:
        raise BuilderError("chain ends (%r, %r, %s); not a %s shape"
                           % (last_lam, last_mu, chain.termination, target))

    return build_from_chain(chain)


def dualize(fam, tol=DEFAULT_TOL):
    """Complementary family on the dual poset; involutive on its domain."""
    total = fam.character.total
    if total <= 1.0 + tol:
        raise BuilderError("character total %r must exceed one" % (total,))
    scale = 1.0 / (total - 1.0)
    eye = np.eye(fam.dimension)
    projections = {g: eye - p for g, p in fam.projections.items()}
    character = Character({g: w * scale for g, w in fam.character.weights.items()})
    return ProjectionFamily(dual_poset(fam.poset), character, projections, split=fam.split)
