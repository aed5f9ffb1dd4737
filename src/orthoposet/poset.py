"""Finite posets: validation, classification, chain-block decomposition."""

import functools
import itertools
import json

CHAIN_TAME = "ChainTame"
TWO_WIDTH_TAME = "TwoWidthTame"
ONE_PARAMETER = "OneParameter"
WILD = "Wild"


class PosetError(ValueError):
    pass


class NotTame(PosetError):
    pass


class BadSplit(PosetError):
    pass


def _bits(mask):
    "indices of the set bits of mask, lowest first"
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(up, names):
    """Transitive closure of per-element successor bitmasks.

    Depth-first: a row is closed as the OR of its successors' closed rows,
    so the work is one OR per given relation. Raises PosetError when an
    element is reached again from below itself.
    """
    closed, entered = [None] * len(up), [False] * len(up)
    stack = [(root, root) for root in range(len(up))]  # last first
    while stack:
        i, via = stack.pop()  # via: the element that put i on the stack
        if closed[i] is not None:
            continue
        row, todo = up[i], []
        for j in _bits(up[i]):
            if closed[j] is None:
                todo.append(j)
            else:
                row |= closed[j]
        if not todo:
            closed[i] = row
        elif entered[i]:
            # i is open, so it lies below via, and via < i: a cycle
            raise PosetError("cycle through %r and %r" % (names[i], names[via]))
        else:
            # look at i again once the successors in todo are closed
            entered[i] = True
            stack.append((i, via))
            stack.extend((j, i) for j in todo)
    return closed


class Poset:
    """A finite strict partial order on opaque string elements.

    The order is held as closed up/down bitmasks per element, bit j of
    _up[i] meaning elements[i] < elements[j]; the element list fixes matrix
    row ordering downstream. relations (the closure) and hasse (the cover
    pairs) are frozensets of element pairs, built on first use.
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
        self._up = _close(up, self.elements)
        self._down = _close(down, self.elements)

    @functools.cached_property
    def relations(self):
        els = self.elements
        return frozenset((els[i], els[j]) for i, mask in enumerate(self._up)
                         for j in _bits(mask))

    @functools.cached_property
    def hasse(self):
        els = self.elements
        return frozenset((els[i], els[j]) for i, mask in enumerate(self._up)
                         for j in _bits(mask) if not mask & self._down[j])

    def _names(self, mask):
        return frozenset(self.elements[i] for i in _bits(mask))

    def less(self, g, h):
        return bool(self._up[self._index[g]] >> self._index[h] & 1)

    def comparable(self, g, h):
        i, j = self._index[g], self._index[h]
        return i == j or bool((self._up[i] | self._down[i]) >> j & 1)

    def up_set(self, g):
        return self._names(self._up[self._index[g]])

    def down_set(self, g):
        return self._names(self._down[self._index[g]])

    def induced(self, subset):
        keep = set(subset)
        return Poset([g for g in self.elements if g in keep],
                     [(g, h) for g, h in self.relations if g in keep and h in keep])

    def up_sets(self):
        """All upward-closed subsets, as frozensets, in 0/1 product-scan order.

        Depth-first over the elements, "out" before "in"; taking an element
        takes its up-set and leaving it out drops its down-set, so every
        branch ends in an up-set.
        """
        n, result = len(self.elements), []
        stack = [(0, 0, 0)]  # (next element, taken mask, left-out mask)
        while stack:
            i, take, drop = stack.pop()
            if i == n:
                result.append(self._names(take))
                continue
            bit = 1 << i
            # "in" goes on the stack first so that "out" is explored first
            if not drop & bit:
                stack.append((i + 1, take | bit | self._up[i], drop))
            if not take & bit:
                stack.append((i + 1, take, drop | bit | self._down[i]))
        return result

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.elements, self.relations))

    def __repr__(self):
        rel = sorted(self.hasse)
        return "Poset(%r, %r)" % (list(self.elements), rel)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        try:
            elements = doc["elements"]
            relations = [tuple(pair) for pair in doc.get("relations", [])]
        except (TypeError, KeyError) as exc:
            raise PosetError("poset document needs 'elements' and 'relations'") from exc
        names = [g for pair in relations for g in pair]
        if not isinstance(elements, list) or not all(isinstance(g, str) for g in elements + names):
            raise PosetError("elements and relation entries must be strings")
        return cls(elements, relations)

    def to_dict(self):
        return {"elements": list(self.elements),
                "relations": [list(p) for p in sorted(self.relations)]}


class ChainDecomposition:
    """Blocks of size one or two, listed from poset bottom to top."""

    def __init__(self, blocks):
        self.blocks = [tuple(b) for b in blocks]
        pairs = [i for i, b in enumerate(self.blocks) if len(b) == 2]
        self.pair_index = pairs[0] if len(pairs) == 1 else None
        self.pair_count = len(pairs)
        self.kind = (CHAIN_TAME, ONE_PARAMETER, TWO_WIDTH_TAME)[min(len(pairs), 2)]


def width(p):
    """Maximum antichain size: by Dilworth's theorem the fewest chains covering
    p, which is n minus a maximum matching of the strict order read as a
    bipartite graph (Fulkerson 1956), grown here by augmenting paths. An
    unmatched successor is taken before any path is followed, so a chain
    costs linear time in either element order.
    """
    owner = {}  # j -> the i matched to it, i < j
    matched = 0  # the keys of owner, as a bitmask

    def augment(i, seen):
        nonlocal matched
        # seen[0]: bitmask of the j already reached in this search
        free = p._up[i] & ~seen[0]
        seen[0] |= free
        unmatched = free & ~matched
        if unmatched:
            j = (unmatched & -unmatched).bit_length() - 1
            owner[j] = i
            matched |= 1 << j
            return True
        for j in _bits(free):
            if augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return len(p.elements) - sum(augment(i, [0]) for i in range(len(p.elements)))


def decompose(p):
    """Split a tame poset into a chain of Singleton and Pair blocks.

    Raises NotTame when an element is incomparable to two others (width over
    2, or a (1,2)-subposet). Otherwise the blocks are totally ordered, so
    they sort by the size of their down-sets.
    """
    everything = (1 << len(p.elements)) - 1
    blocks = []
    for i, g in enumerate(p.elements):
        loose = everything & ~(p._up[i] | p._down[i] | 1 << i)
        if loose & (loose - 1):
            raise NotTame("element incomparable to two others")
        if not loose:
            blocks.append((g,))
        elif loose > 1 << i:
            blocks.append((g, p.elements[loose.bit_length() - 1]))
    blocks.sort(key=lambda b: p._down[p._index[b[0]]].bit_count())
    return ChainDecomposition(blocks)


def classify(p):
    "Wild exactly when decompose fails, else by the number of Pair blocks"
    try:
        return decompose(p).kind
    except NotTame:
        return WILD


def split_two_one_parameter(p, s1_elements):
    """Return the induced subposets on s1_elements and its complement.

    Each part must be one-parameter or a chain, and no relation of p may
    join the two parts.
    """
    parts = tuple(map(p.induced, check_split(p, s1_elements)))
    for part in parts:
        if classify(part) not in (ONE_PARAMETER, CHAIN_TAME):
            raise BadSplit("induced part %r is not one-parameter" % (list(part.elements),))
    return parts


def check_split(p, s1_elements):
    "The two parts' elements; both nonempty, and no relation of p joins them"
    s1 = set(s1_elements)
    if not s1 <= set(p.elements):
        raise BadSplit("split mentions elements outside the poset")
    s2 = [g for g in p.elements if g not in s1]
    if not s2 or not s1:
        raise BadSplit("both parts must be nonempty")
    crossing = sorted((g, h) for g, h in p.hasse if (g in s1) != (h in s1))
    if crossing:
        raise BadSplit("relation %r < %r joins the two parts" % crossing[0])
    return s1, s2


def dual(p):
    return Poset(p.elements, [(h, g) for g, h in p.relations])


def is_isomorphic(p, q):
    "brute-force bijection search; meant for small posets"
    if len(p.elements) != len(q.elements) or len(p.relations) != len(q.relations):
        return False

    def profile(r):
        return sorted((u.bit_count(), d.bit_count()) for u, d in zip(r._up, r._down))

    if profile(p) != profile(q):
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

    Every finite poset admits a labeling with g < h only for increasing
    indices, so closing upper-triangular relation sets covers every class;
    duplicates are removed by a minimum-over-relabelings canonical form.
    The walk covers all 2^(n(n-1)/2) upper-triangular relation sets, so n
    above 7 (2^28 sets) is refused before any work.
    """
    import numpy as np

    bits = n * (n - 1) // 2
    if n > 7:
        raise PosetError("generate_posets(%d) would walk 2^%d = %d relation sets; "
                         "n is limited to 7" % (n, bits, 1 << bits))
    if n == 0:
        return [Poset([])]
    names = ["e%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bit_of = {ij: b for b, ij in enumerate(pairs)}
    closed = set()
    for mask in range(1 << len(pairs)):
        up = [0] * n  # bitmask of strict successors per node
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                up[i] |= 1 << j
        key = 0
        for i, row in enumerate(_close(up, names)):
            for j in _bits(row):
                key |= 1 << bit_of[(i, j)]
        closed.add(key)

    closed = sorted(closed)
    nbits = len(pairs)
    bits = np.zeros((len(closed), nbits), dtype=np.int64)
    for row, key in enumerate(closed):
        for b in range(nbits):
            if key >> b & 1:
                bits[row, b] = 1
    # canonical key: minimum over relabelings of the ordered-pair bitmask
    ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    pos_of = {ij: b for b, ij in enumerate(ordered)}
    canon = np.full(len(closed), np.iinfo(np.int64).max, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        w = np.array([1 << pos_of[(perm[i], perm[j])] for i, j in pairs], dtype=np.int64)
        np.minimum(canon, bits @ w, out=canon)
    reps = {}
    for row, key in enumerate(closed):
        reps.setdefault(int(canon[row]), key)
    out = []
    for key in sorted(reps.values()):
        rel = [(names[i], names[j]) for b, (i, j) in enumerate(pairs) if key >> b & 1]
        out.append(Poset(names, rel))
    return out
