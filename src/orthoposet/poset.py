"""Finite posets: validation, classification, chain-block decomposition."""

import functools
import itertools
import math

import numpy as np

CHAIN_TAME = "ChainTame"
TWO_WIDTH_TAME = "TwoWidthTame"
ONE_PARAMETER = "OneParameter"
WILD = "Wild"


class PosetError(ValueError):
    pass


def _bits(mask):
    "indices of the set bits of mask, lowest first"
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(up, down, names):
    """Transitive closure of the successor and predecessor bitmasks in one
    topological pass: an element is taken once all its successors are, and
    its up row is then the OR of theirs, one OR per given relation; the down
    rows close in the reverse order. If some element is never taken, a walk
    from the first through untaken successors meets an element twice, and
    PosetError names it and the one given directly below it on the walk.
    """
    waiting = [row.bit_count() for row in up]
    order = [i for i, w in enumerate(waiting) if not w]
    closed_up, closed_down = up[:], down[:]
    for i in order:  # order grows as elements are taken
        row = up[i]
        for j in _bits(up[i]):
            row |= closed_up[j]
        closed_up[i] = row
        for j in _bits(down[i]):
            waiting[j] -= 1
            if not waiting[j]:
                order.append(j)
    if len(order) < len(up):
        i, walked = next(i for i, w in enumerate(waiting) if w), 0
        while not walked >> i & 1:
            walked |= 1 << i
            below, i = i, next(j for j in _bits(up[i]) if waiting[j])
        raise PosetError("cycle through %r and %r" % (names[i], names[below]))
    for i in reversed(order):
        row = down[i]
        for j in _bits(down[i]):
            row |= closed_down[j]
        closed_down[i] = row
    return closed_up, closed_down


class Poset:
    """A finite strict partial order on opaque string elements.

    The order is held as closed up/down bitmasks per element, bit j of
    _up[i] meaning elements[i] < elements[j]; the element list fixes matrix
    row ordering downstream. The constructor checks its relations and
    closes both directions in one pass; subposets, duals and disjoint unions
    are cut, swapped or shifted from these closed masks, with no closure of
    their own. relation_index (the closure in name order), relations (its
    set of element pairs) and hasse (the cover pairs) are built on first use.
    """

    def __init__(self, elements, relations=()):
        self.elements = tuple(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PosetError("duplicate elements")
        up, down = [0] * len(self.elements), [0] * len(self.elements)
        for g, h in relations:
            if g not in self._index or h not in self._index:
                raise PosetError("relation (%r, %r) mentions an unknown element" % (g, h))
            if g == h:
                raise PosetError("reflexive relation on %r" % (g,))
            i, j = self._index[g], self._index[h]
            up[i] |= 1 << j
            down[j] |= 1 << i
        self._up, self._down = _close(up, down, self.elements)

    @classmethod
    def _from_masks(cls, elements, up, down):
        "the poset on distinct elements whose up/down masks are already closed"
        p = cls.__new__(cls)
        p.elements = tuple(elements)
        p._index = {g: i for i, g in enumerate(p.elements)}
        p._up, p._down = up, down
        return p

    @functools.cached_property
    def relation_index(self):
        """The closure as read-only intp arrays (lo, hi), one entry per relation
        elements[lo[k]] < elements[hi[k]], in the order of sorted(relations):
        the up masks row by row in name order, each row's bits in name order."""
        k = len(self.elements)
        by_name = np.array(sorted(range(k), key=self.elements.__getitem__), dtype=np.intp)
        rows = []
        for i in by_name.tolist():
            bits = np.frombuffer(self._up[i].to_bytes((k + 7) // 8, "little"), np.uint8)
            rows.append(by_name[np.unpackbits(bits, count=k, bitorder="little")[by_name] == 1])
        lo = np.repeat(by_name, [len(row) for row in rows])
        hi = np.concatenate([by_name[:0]] + rows)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @functools.cached_property
    def relations(self):
        els, (lo, hi) = self.elements, self.relation_index
        return frozenset(zip(map(els.__getitem__, lo.tolist()), map(els.__getitem__, hi.tolist())))

    @functools.cached_property
    def hasse(self):
        els = self.elements
        return frozenset((els[i], els[j]) for i, mask in enumerate(self._up)
                         for j in _bits(mask) if not mask & self._down[j])

    def _names(self, mask):
        return frozenset(self.elements[i] for i in _bits(mask))

    def less(self, g, h):
        return bool(self._up[self._index[g]] >> self._index[h] & 1)

    def up_set(self, g):
        return self._names(self._up[self._index[g]])

    def down_set(self, g):
        return self._names(self._down[self._index[g]])

    def induced(self, subset):
        """The subposet on the elements of subset, in this poset's order.

        Each mask drops the bits left out: one shift and mask per run of
        consecutive kept indices. Names outside the poset are ignored.
        """
        keep = set(subset)
        kept = [i for i, g in enumerate(self.elements) if g in keep]
        runs, at = [], 0  # (first index, width mask, new first index)
        for _, run in itertools.groupby(enumerate(kept), lambda t: t[1] - t[0]):
            run = [i for _, i in run]
            runs.append((run[0], (1 << len(run)) - 1, at))
            at += len(run)

        def squeeze(mask):
            out = 0
            for first, width_mask, new in runs:
                out |= (mask >> first & width_mask) << new
            return out

        return Poset._from_masks([self.elements[i] for i in kept],
                                 [squeeze(self._up[i]) for i in kept],
                                 [squeeze(self._down[i]) for i in kept])

    def up_sets(self, weights=None, target=0.0, tol=math.inf):
        """Upward-closed subsets, as frozensets, in 0/1 product-scan order.

        Depth-first over the elements, "out" before "in"; taking an element
        takes its up-set and leaving it out drops its down-set, so every
        branch ends in an up-set, and each branch point is the first element
        still undecided. With weights, a mapping from elements to weights,
        none negative, it keeps the up-sets whose weight, summed in element
        order, lies within tol of target; a branch stops once what it took
        weighs more than target + tol, or all it can still take weighs less
        than target - tol, each widened by the running sums' rounding, so
        the walk costs in proportion to the up-sets near target. Without
        weights every up-set is listed and nothing is summed.
        """
        everything, result = (1 << len(self.elements)) - 1, []
        if weights is not None:
            weights = [weights[g] for g in self.elements]

        def weight(mask):
            return sum(weights[j] for j in _bits(mask)) if weights else 0.0

        total = weight(everything)
        # the running sums and a set's element-order sum differ by at most
        # about 4 |G| ulps of the total
        slack = tol + 4 * len(self.elements) * total * 2 ** -52
        # (taken mask, left-out mask, weight taken, weight still undecided)
        stack = [(0, 0, 0.0, total)]
        while stack:
            take, drop, took, left = stack.pop()
            if took > target + slack or took + left < target - slack:
                continue
            undecided = everything & ~(take | drop)
            if not undecided:
                if abs(weight(take) - target) <= tol:
                    result.append(self._names(take))
                continue
            bit = undecided & -undecided
            i = bit.bit_length() - 1
            # "in" goes on the stack first so that "out" is explored first;
            # either way the bits that join are all still undecided
            new = (bit | self._up[i]) & ~take
            gain = weight(new)
            stack.append((take | new, drop, took + gain, left - gain))
            new = (bit | self._down[i]) & ~drop
            stack.append((take, drop | new, took, left - weight(new)))
        return result

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self._up == other._up)

    def __hash__(self):
        return hash((self.elements, tuple(self._up)))

    def __repr__(self):
        rel = sorted(self.hasse)
        return "Poset(%r, %r)" % (list(self.elements), rel)

    @classmethod
    def from_dict(cls, doc):
        try:
            elements = doc["elements"]
            relations = list(doc.get("relations", []))
        except (TypeError, KeyError) as exc:
            raise PosetError("poset document needs 'elements' and 'relations'") from exc
        for pair in relations:
            if not isinstance(pair, list) or len(pair) != 2:
                raise PosetError("relation %r is not a list of two element names" % (pair,))
        names = [g for pair in relations for g in pair]
        if not isinstance(elements, list) or not all(isinstance(g, str) for g in elements + names):
            raise PosetError("elements and relation entries must be strings")
        return cls(elements, [tuple(pair) for pair in relations])

    def to_dict(self):
        els, (lo, hi) = self.elements, self.relation_index
        return {"elements": list(els),
                "relations": [[els[i], els[j]] for i, j in zip(lo.tolist(), hi.tolist())]}


class ChainDecomposition:
    """Blocks of size one or two, listed from poset bottom to top, and the
    kind they make; blocks is None for a Wild poset."""

    def __init__(self, blocks):
        self.blocks = None if blocks is None else [tuple(b) for b in blocks]
        pairs = [i for i, b in enumerate(self.blocks or ()) if len(b) == 2]
        self.pair_index = pairs[0] if len(pairs) == 1 else None
        self.kind = WILD if blocks is None else (
            CHAIN_TAME, ONE_PARAMETER, TWO_WIDTH_TAME)[min(len(pairs), 2)]


def width(p):
    """Maximum antichain size: by Dilworth's theorem the fewest chains covering
    p, which is n minus a maximum matching of the strict order read as a
    bipartite graph (Fulkerson 1956), grown here by augmenting paths. An
    unmatched successor is taken before any path is followed, so a chain
    costs linear time in either element order. The path search keeps its
    own stack, so a path may be as long as the poset.
    """
    owner = {}  # j -> the i matched to it, i < j
    matched = 0  # the keys of owner, as a bitmask
    for root in range(len(p.elements)):
        # path: [i, successors of i left to try, the j tried last] per step
        seen, i, path = 0, root, []  # seen: the j reached from root so far
        while True:
            free = p._up[i] & ~seen
            seen |= free
            unmatched = free & ~matched
            if unmatched:
                j = (unmatched & -unmatched).bit_length() - 1
                matched |= 1 << j
                path.append([i, 0, j])
                owner.update((j, i) for i, _, j in path)
                break
            path.append([i, free, None])
            while path and not path[-1][1]:
                path.pop()
            if not path:
                break
            step = path[-1]
            low = step[1] & -step[1]
            step[1] ^= low
            step[2] = low.bit_length() - 1
            i = owner[step[2]]
    return len(p.elements) - len(owner)


def decompose(p):
    """Split a tame poset into a chain of Singleton and Pair blocks.

    The poset is Wild, with blocks None, when an element is incomparable to
    two others (width over 2, or a (1,2)-subposet). Otherwise the blocks are
    totally ordered, so they sort by the size of their down-sets.
    """
    everything = (1 << len(p.elements)) - 1
    blocks = []
    for i, g in enumerate(p.elements):
        loose = everything & ~(p._up[i] | p._down[i] | 1 << i)
        if loose & (loose - 1):
            return ChainDecomposition(None)
        if not loose:
            blocks.append((g,))
        elif loose > 1 << i:
            blocks.append((g, p.elements[loose.bit_length() - 1]))
    blocks.sort(key=lambda b: p._down[p._index[b[0]]].bit_count())
    return ChainDecomposition(blocks)


def classify(p):
    "Wild when decompose finds no blocks, else by the number of Pair blocks"
    return decompose(p).kind


def split_two_one_parameter(p, s1_elements):
    """Return the induced subposets on s1_elements and its complement.

    Each part must be one-parameter or a chain, and no relation of p may
    join the two parts.
    """
    return tuple(check_one_parameter(p.induced(part))
                 for part in check_split(p, s1_elements))


def check_one_parameter(part):
    "part itself, if it is one-parameter, a chain or empty; else PosetError"
    if classify(part) not in (ONE_PARAMETER, CHAIN_TAME):
        raise PosetError("induced part %r is not one-parameter" % (list(part.elements),))
    return part


def check_split(p, s1_elements):
    "The two parts' elements; both nonempty, and no relation of p joins them"
    s1 = set(s1_elements)
    if not s1 <= set(p.elements):
        raise PosetError("split mentions elements outside the poset")
    s2 = [g for g in p.elements if g not in s1]
    if not s2 or not s1:
        raise PosetError("both parts must be nonempty")
    part = sum(1 << p._index[g] for g in s1)
    if any((p._up[i] | p._down[i]) & ~part for i in _bits(part)):
        # some cover pair on a path between the parts crosses; name the least
        crossing = min((g, h) for g, h in p.hasse if (g in s1) != (h in s1))
        raise PosetError("relation %r < %r joins the two parts" % crossing)
    return s1, s2


def dual(p):
    return Poset._from_masks(p.elements, p._down, p._up)


def disjoint_union(p1, p2):
    """p1 and p2 side by side, no element of one related to one of the
    other; p2's masks move up past p1's elements."""
    shared = set(p1.elements) & set(p2.elements)
    if shared:
        raise PosetError("parts share elements %r" % (sorted(shared),))
    shift = len(p1.elements)
    return Poset._from_masks(p1.elements + p2.elements,
                             p1._up + [m << shift for m in p2._up],
                             p1._down + [m << shift for m in p2._down])


def is_isomorphic(p, q):
    "brute-force bijection search; meant for small posets"
    def profile(r):
        return sorted((u.bit_count(), d.bit_count()) for u, d in zip(r._up, r._down))

    if len(p.elements) != len(q.elements) or profile(p) != profile(q):
        return False
    for perm in itertools.permutations(q.elements):
        m = dict(zip(p.elements, perm))
        if all((m[g], m[h]) in q.relations for g, h in p.relations):
            return True
    return False


_A2 = Poset(["g1", "g2", "g3", "g4", "g5"], [("g1", "g5"), ("g2", "g5")])
_A6 = Poset(["g1", "g2", "g3", "g4", "g5", "g6"],
            [("g1", "g5"), ("g2", "g5"), ("g5", "g6")])
_A4 = Poset(["g1", "g2", "g3", "g4", "g5", "g6"],
            [("g1", "g5"), ("g2", "g5"), ("g3", "g6"), ("g4", "g6")])
CATALOG = {"(1,1,1,1)": Poset(["g1", "g2", "g3", "g4"], []),
           "a2": _A2, "a2_dual": dual(_A2),
           "a6": _A6, "a6_dual": dual(_A6),
           "a4": _A4, "a4_dual": dual(_A4)}

# The pair g1, g2 with one element above, one below, and two loose points.
# Recognized by nothing in CATALOG: it carries no essential representation.
A8 = Poset(["g1", "g2", "g3", "g4", "g5", "g6"],
           [("g1", "g5"), ("g2", "g5"), ("g6", "g1"), ("g6", "g2")])


def essential_catalog_match(p):
    "catalog name if p is order-isomorphic to a catalog member, else None"
    for name, member in CATALOG.items():
        if is_isomorphic(p, member):
            return name
    return None


def generate_posets(n):
    """All posets on n elements, one representative per isomorphism class.

    Each poset on m points is one on m - 1 points with a maximal element
    added above a down-set, the complement of one of its up-sets, so each
    level grows from the representatives of the level below. A candidate's
    key is the bitmask of its relations over the pairs i < j, in
    lexicographic order; its canonical key is the least key over the
    relabelings that keep every relation going up the labels. The
    representatives are the distinct canonical keys, in increasing order.
    Every candidate is relabeled n! ways, so n above 7 is refused before
    any work, as is a negative n; n = 7 takes about a second.
    """
    if n < 0:
        raise PosetError("generate_posets(%d): n must be non-negative" % n)
    if n > 7:
        raise PosetError("generate_posets(%d) would try %d! = %d relabelings of every "
                         "candidate; n is limited to 7" % (n, n, math.factorial(n)))
    level = [Poset([])]
    for m in range(1, n + 1):
        names = ["e%d" % i for i in range(m)]
        low, high = np.triu_indices(m, 1)  # the pairs i < j, lexicographic
        # the new element names[-1] goes above everything outside the up-set
        rows = [[q.less(names[i], names[j]) if j < m - 1 else names[i] not in up
                 for i, j in zip(low, high)]
                for q in level for up in q.up_sets()]
        rel = np.array(rows, dtype=np.int64)
        weight = np.zeros((m, m), dtype=np.int64)
        weight[low, high] = 1 << np.arange(len(low))
        # a relation relabeled to go down outweighs every key
        weight[high, low] = 1 << len(low)
        canon = np.full(len(rows), np.iinfo(np.int64).max)
        for perm in map(np.array, itertools.permutations(range(m))):
            np.minimum(canon, rel @ weight[perm[low], perm[high]], out=canon)
        level = [Poset(names, [(names[i], names[j]) for b, (i, j) in enumerate(zip(low, high))
                               if key >> b & 1])
                 for key in np.unique(canon).tolist()]
    return level
