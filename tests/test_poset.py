import itertools
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orthoposet.poset import (A8, CATALOG, CHAIN_TAME, ONE_PARAMETER,
                              TWO_WIDTH_TAME, WILD, Poset,
                              PosetError, check_split, classify, decompose,
                              disjoint_union, dual, essential_catalog_match,
                              generate_posets, is_isomorphic,
                              split_two_one_parameter, width)

MAX_ELEMENTS = 5
CLASS_COUNTS = [1, 2, 5, 16, 63, 318, 2045]  # isomorphism classes on 1..7 points

DIAMOND = Poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def random_dag(names, picks):
    # relations only go up in label order, so construction never cycles
    pairs = list(itertools.combinations(names, 2))
    rels = [pairs[i % len(pairs)] for i in picks] if pairs else []
    return Poset(names, rels)


# Brute-force references: they share no code with the bitmask core.

def ref_closure(elements, relations):
    "fixpoint transitive closure, and the cover pairs by definition"
    rel = set(relations)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    hasse = {(g, h) for g, h in rel
             if not any((g, m) in rel and (m, h) in rel for m in elements)}
    return frozenset(rel), frozenset(hasse)


def ref_comparable(p, g, h):
    return g == h or (g, h) in p.relations or (h, g) in p.relations


def ref_width(p):
    "largest antichain, over all 2^n subsets"
    best = 1 if p.elements else 0
    for bits in range(1, 1 << len(p.elements)):
        members = [g for i, g in enumerate(p.elements) if bits >> i & 1]
        if len(members) > best and all(not ref_comparable(p, g, h)
                                       for g, h in itertools.combinations(members, 2)):
            best = len(members)
    return best


def ref_up_sets(p):
    "up-closed subsets in 0/1 product-scan order"
    result = []
    for bits in itertools.product((0, 1), repeat=len(p.elements)):
        take = frozenset(g for g, b in zip(p.elements, bits) if b)
        if all(h in take for g, h in p.relations if g in take):
            result.append(take)
    return result


def contains_one_two(p):
    "true iff some element is incomparable to both members of a 2-chain"
    return any(a not in (b, c) and not ref_comparable(p, a, b) and not ref_comparable(p, a, c)
               for b, c in p.relations for a in p.elements)


def ref_classify(p):
    if ref_width(p) >= 3 or contains_one_two(p):
        return WILD
    if ref_width(p) <= 1:
        return CHAIN_TAME
    pairs = sum(1 for g, h in itertools.combinations(p.elements, 2)
                if not ref_comparable(p, g, h))
    return ONE_PARAMETER if pairs == 1 else TWO_WIDTH_TAME


def shuffled_dags(count, max_elements, rng):
    "random DAGs whose element order is shuffled away from the label order"
    for _ in range(count):
        n = rng.randint(1, max_elements)
        names = ["e%d" % i for i in range(n)]
        rels = [(g, h) for g, h in itertools.combinations(names, 2) if rng.random() < 0.3]
        order = names[:]
        rng.shuffle(order)
        yield order, rels


def assert_order_matches_reference(p, elements, rels):
    "p is the order on elements that the reference closes from rels"
    relations, hasse = ref_closure(elements, rels)
    assert p.elements == tuple(elements)
    assert p.relations == relations
    assert p.hasse == hasse
    for g in elements:
        assert p.up_set(g) == frozenset(h for a, h in relations if a == g)
        assert p.down_set(g) == frozenset(a for a, h in relations if h == g)
        for h in elements:
            assert p.less(g, h) == ((g, h) in relations)
    return relations


def assert_core_matches_reference(elements, rels):
    p = Poset(elements, rels)
    relations = assert_order_matches_reference(p, elements, rels)
    for g in elements:
        for h in elements:
            assert (g == h or p.less(g, h) or p.less(h, g)) == ref_comparable(p, g, h)
    assert p.up_sets() == ref_up_sets(p)
    assert width(p) == ref_width(p)
    assert classify(p) == ref_classify(p)
    blocks = decompose(p).blocks
    if blocks is None:
        assert ref_classify(p) == WILD
        return
    assert sorted(g for b in blocks for g in b) == sorted(elements)
    for lower, upper in zip(blocks, blocks[1:]):
        assert all((g, h) in relations for g in lower for h in upper)


def test_transitive_closure():
    p = Poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert p.less("x", "z")
    assert ("x", "z") in p.relations
    assert ("x", "z") not in p.hasse


def test_constructor_rejects_bad_input():
    with pytest.raises(PosetError):
        Poset(["x", "x"])
    with pytest.raises(PosetError):
        Poset(["x"], [("x", "x")])
    with pytest.raises(PosetError):
        Poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(PosetError):
        Poset(["x"], [("x", "q")])


def ring(names):
    return list(zip(names, names[1:] + names[:1]))


LONG_RING = ["c%05d" % i for i in range(2000)]


@pytest.mark.parametrize("elements, relations, cycle", [
    (["x", "y"], ring(["x", "y"]), {"x", "y"}),
    (["x", "y", "z"], ring(["x", "y", "z"]), {"x", "y", "z"}),
    # the walk starts below the ring, at t, and enters it halfway round
    (["t"] + LONG_RING, [("t", "c01000")] + ring(LONG_RING), set(LONG_RING)),
], ids=["2-cycle", "3-cycle", "2000-ring-with-a-tail"])
def test_a_cycle_is_named_by_a_given_relation_on_it(elements, relations, cycle):
    with pytest.raises(PosetError) as info:
        Poset(elements, relations)
    upper, lower = re.fullmatch(r"cycle through '(\w+)' and '(\w+)'",
                                str(info.value)).groups()
    assert {upper, lower} <= cycle
    assert (lower, upper) in relations


def test_a_long_ring_is_refused_in_linear_time():
    # a walk that kept the elements it passed in a list, and looked each
    # new one up in it, would take quadratic time here
    names = ["r%05d" % i for i in range(20000)]
    t0 = time.perf_counter()
    with pytest.raises(PosetError, match="^cycle through "):
        Poset(names, ring(names))
    assert time.perf_counter() - t0 < 2.0


def test_up_down_sets():
    assert DIAMOND.up_set("a") == frozenset({"b", "c", "d"})
    assert DIAMOND.down_set("d") == frozenset({"a", "b", "c"})
    assert DIAMOND.up_set("d") == frozenset()


def test_up_sets_of_chain():
    chain = Poset(["1", "2", "3"], [("1", "2"), ("2", "3")])
    ups = chain.up_sets()
    assert len(ups) == 4  # suffixes only
    assert frozenset({"3"}) in ups
    assert frozenset({"1", "3"}) not in ups


TENTHS_AND_EIGHTHS = [k / 10 for k in range(1, 11)] + [k / 8 for k in range(1, 9)]


@seed(14)
@given(picks=st.lists(st.integers(min_value=0, max_value=14), max_size=10),
       weights=st.lists(st.sampled_from(TENTHS_AND_EIGHTHS), min_size=6, max_size=6),
       n=st.integers(min_value=1, max_value=6),
       tol=st.sampled_from([0.0, 1e-12, 0.05]))
def test_weighted_up_sets_keep_the_element_order_sums_near_target(picks, weights, n, tol):
    p = random_dag(["e%d" % i for i in range(n)], picks)
    chi = dict(zip(p.elements, weights))
    listing = ref_up_sets(p)
    assert p.up_sets() == listing
    assert p.up_sets(chi) == listing

    def weight(u):
        return sum(chi[g] for g in p.elements if g in u)

    for w in sorted({weight(u) for u in listing}):
        for target in (w, w - tol / 2, w + tol / 2, w - 2 * tol, w + 2 * tol):
            assert p.up_sets(chi, target, tol) == [
                u for u in listing if abs(weight(u) - target) <= tol]


def test_weighted_up_sets_sum_in_element_order():
    # 0.1 + 0.2 + 0.7 is 1.0, 0.7 + 0.2 + 0.1 is 0.9999999999999999
    chi = {"a": 0.1, "b": 0.2, "c": 0.7}
    assert Poset(["a", "b", "c"]).up_sets(chi, 1.0, 0.0) == [frozenset("abc")]
    assert Poset(["c", "b", "a"]).up_sets(chi, 1.0, 0.0) == []


def test_induced_subposet():
    q = DIAMOND.induced(["a", "d"])
    assert q.elements == ("a", "d")
    assert q.less("a", "d")


def test_json_round_trip():
    q = Poset.from_dict(json.loads(json.dumps(DIAMOND.to_dict())))
    assert q == DIAMOND


@pytest.mark.parametrize("entry", ["ab", {"a": 1, "b": 2}, ["a", "b", "a"], ["a"]],
                         ids=["string", "object", "three-names", "one-name"])
def test_from_dict_takes_a_relation_only_as_two_names(entry):
    with pytest.raises(PosetError, match=r"relation %s is not a list of two element names"
                       % re.escape(repr(entry))):
        Poset.from_dict({"elements": ["a", "b"], "relations": [entry]})


def test_width_values():
    assert width(Poset(["a"])) == 1
    assert width(Poset(["a", "b", "c", "d"], [])) == 4
    assert width(DIAMOND) == 2
    assert width(CATALOG["a2"]) == 4


def test_classify_values():
    assert classify(Poset(["a", "b"], [("a", "b")])) == CHAIN_TAME
    assert classify(Poset(["a", "b"], [])) == ONE_PARAMETER
    two_pairs = Poset(["a", "b", "c", "d"],
                      [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert classify(two_pairs) == TWO_WIDTH_TAME
    assert classify(Poset(["a", "b", "c"], [])) == WILD
    one_two = Poset(["a", "b", "c"], [("a", "b")])
    assert contains_one_two(one_two)
    assert classify(one_two) == WILD


def test_decompose_diamond():
    dec = decompose(DIAMOND)
    assert dec.blocks == [("a",), ("b", "c"), ("d",)]
    assert dec.pair_index == 1


def test_decompose_rejects_double_incomparability():
    dec = decompose(Poset(["a", "b", "c"], []))
    assert dec.blocks is None
    assert dec.kind == WILD
    assert dec.pair_index is None


def test_decompose_reassembles():
    for p in generate_posets(4):
        dec = decompose(p)
        if dec.blocks is None:
            continue
        seen = [g for b in dec.blocks for g in b]
        assert sorted(seen) == sorted(p.elements)


def test_split_two_one_parameter():
    p1, p2 = split_two_one_parameter(CATALOG["a4"], ("g1", "g2", "g5"))
    assert p1.elements == ("g1", "g2", "g5")
    assert p2.elements == ("g3", "g4", "g6")
    assert classify(p1) == ONE_PARAMETER
    with pytest.raises(PosetError, match="joins the two parts"):
        split_two_one_parameter(CATALOG["a4"], ("g1",))
    with pytest.raises(PosetError, match="both parts must be nonempty"):
        split_two_one_parameter(CATALOG["a4"], ("g1", "g2", "g3", "g4", "g5", "g6"))


def test_dual_reverses_relations():
    d = dual(DIAMOND)
    assert d.less("d", "a")
    assert dual(d) == DIAMOND


def test_is_isomorphic():
    q = Poset(["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")])
    assert is_isomorphic(DIAMOND, q)
    assert not is_isomorphic(DIAMOND, Poset(["p", "q", "r", "s"], [("p", "q")]))


def test_is_isomorphic_searches_every_bijection_before_it_says_no():
    names = ["e%d" % i for i in range(6)]
    p = Poset(names, [("e0", "e4"), ("e0", "e5"), ("e1", "e3"), ("e2", "e3")])
    q = Poset(names, [("e0", "e3"), ("e0", "e5"), ("e1", "e4"), ("e2", "e3")])

    def profile(r):
        return sorted((len(r.up_set(g)), len(r.down_set(g))) for g in names)

    # the cheap screens pass, so only the full search can tell them apart
    assert len(p.relations) == len(q.relations)
    assert profile(p) == profile(q)
    assert not is_isomorphic(p, q)
    assert not is_isomorphic(q, p)


def test_catalog_members_are_distinct():
    names = list(CATALOG)
    assert len(names) == 7
    for a, b in itertools.combinations(names, 2):
        assert not is_isomorphic(CATALOG[a], CATALOG[b])


def test_catalog_match_ignores_labels():
    renamed = Poset(["u1", "u2", "u3", "u4", "u5"], [("u1", "u3"), ("u1", "u4")])
    assert essential_catalog_match(renamed) == "a2_dual"
    assert essential_catalog_match(A8) is None


def test_dual_catalog_names():
    swaps = {"(1,1,1,1)": "(1,1,1,1)", "a2": "a2_dual", "a2_dual": "a2",
             "a4": "a4_dual", "a4_dual": "a4", "a6": "a6_dual", "a6_dual": "a6"}
    for name, p in CATALOG.items():
        assert essential_catalog_match(dual(p)) == swaps[name]


def test_generate_posets_counts():
    assert generate_posets(0) == [Poset([])]
    for n, expected in enumerate(CLASS_COUNTS, start=1):
        t0 = time.perf_counter()
        assert len(generate_posets(n)) == expected
        assert time.perf_counter() - t0 < 5.0


def test_generate_posets_matches_closing_every_relation_set():
    # close each upper-triangular relation set, keep the least key of each
    # isomorphism class, the key being the relations as a bitmask over the
    # pairs i < j in lexicographic order
    for n in range(MAX_ELEMENTS + 1):
        names = ["e%d" % i for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        closed = {}
        for mask in range(1 << len(pairs)):
            p = Poset(names, [ij for b, ij in enumerate(pairs) if mask >> b & 1])
            closed[sum(1 << b for b, ij in enumerate(pairs) if ij in p.relations)] = p
        reps = []
        for key in sorted(closed):
            if not any(is_isomorphic(closed[key], q) for q in reps):
                reps.append(closed[key])
        assert generate_posets(n) == reps


def test_generate_posets_refuses_n_above_7_at_once():
    t0 = time.perf_counter()
    with pytest.raises(PosetError, match=r"generate_posets\(8\).*8! = 40320 relabelings"):
        generate_posets(8)
    assert time.perf_counter() - t0 < 0.1


def test_generate_posets_refuses_a_negative_n():
    with pytest.raises(PosetError, match=r"generate_posets\(-1\): n must be non-negative"):
        generate_posets(-1)


def test_generate_posets_distinct_classes():
    reps = generate_posets(4)
    for p, q in itertools.combinations(reps, 2):
        assert not is_isomorphic(p, q)


def test_wild_exactly_when_wide_or_one_two():
    for n in range(1, MAX_ELEMENTS + 1):
        for p in generate_posets(n):
            wild = width(p) >= 3 or contains_one_two(p)
            assert (classify(p) == WILD) == wild


@seed(11)
@given(picks=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
       n=st.integers(min_value=1, max_value=MAX_ELEMENTS))
def test_dual_is_involutive_and_width_preserving(picks, n):
    p = random_dag(["e%d" % i for i in range(n)], picks)
    assert dual(dual(p)) == p
    assert width(dual(p)) == width(p)


@seed(12)
@settings(max_examples=40)
@given(picks=st.lists(st.integers(min_value=0, max_value=9), max_size=6),
       shuffle=st.randoms(use_true_random=False))
def test_catalog_match_is_isomorphism_invariant(picks, shuffle):
    p = random_dag(["e%d" % i for i in range(5)], picks)
    names = list(p.elements)
    shuffle.shuffle(names)
    relabel = dict(zip(p.elements, names))
    q = Poset(names, [(relabel[g], relabel[h]) for g, h in p.relations])
    assert essential_catalog_match(q) == essential_catalog_match(p)


@seed(13)
@given(picks=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
       n=st.integers(min_value=2, max_value=MAX_ELEMENTS))
def test_closure_is_transitive(picks, n):
    p = random_dag(["e%d" % i for i in range(n)], picks)
    for (a, b), (c, d) in itertools.product(p.relations, repeat=2):
        if b == c:
            assert (a, d) in p.relations


def test_core_matches_reference_on_all_small_classes():
    for n in range(1, 7):
        for p in generate_posets(n):
            assert_core_matches_reference(p.elements, sorted(p.hasse))


def test_core_matches_reference_on_shuffled_random_dags():
    rng = random.Random(14)
    for elements, rels in shuffled_dags(300, 9, rng):
        assert_core_matches_reference(elements, rels)


def assert_derived_orders_match_reference(elements, rels):
    """Subposets on every subset, the dual and a disjoint union of p, each
    checked against the reference closure of the relations they keep; and
    check_split on every subset names the least crossing cover pair."""
    p = Poset(elements, rels)
    relations, hasse = ref_closure(elements, rels)
    for bits in range(1 << len(elements)):
        sub = [g for i, g in enumerate(elements) if bits >> i & 1]
        rest = [g for g in elements if g not in sub]
        # induced keeps p's order, whatever the order of its argument
        assert_order_matches_reference(
            p.induced(sub[::-1]), sub,
            [(g, h) for g, h in relations if g in sub and h in sub])
        if not sub or not rest:
            continue
        crossing = sorted((g, h) for g, h in hasse if (g in sub) != (h in sub))
        if crossing:
            with pytest.raises(PosetError, match="^%s$" % re.escape(
                    "relation %r < %r joins the two parts" % crossing[0])):
                check_split(p, sub)
        else:
            assert check_split(p, sub) == (set(sub), rest)
    assert_order_matches_reference(dual(p), elements, [(h, g) for g, h in relations])
    # the second copy lists its elements in reverse
    first = Poset(["a" + g for g in elements], [("a" + g, "a" + h) for g, h in rels])
    second = Poset(["b" + g for g in reversed(elements)], [("b" + g, "b" + h) for g, h in rels])
    assert_order_matches_reference(
        disjoint_union(first, second), first.elements + second.elements,
        sorted(first.relations) + sorted(second.relations))


def test_derived_orders_match_reference_on_all_small_classes():
    for n in range(MAX_ELEMENTS + 1):
        for p in generate_posets(n):
            assert_derived_orders_match_reference(p.elements, sorted(p.hasse))


def test_derived_orders_match_reference_on_shuffled_random_dags():
    rng = random.Random(15)
    for elements, rels in shuffled_dags(60, 7, rng):
        assert_derived_orders_match_reference(elements, rels)


def test_equal_posets_hash_equal():
    p = Poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    other = Poset(["x", "y"], [("x", "y")])
    same = [p,
            # the relations in another order, and as their closure
            Poset(p.elements, [("b", "c"), ("a", "b")]),
            Poset(p.elements, sorted(p.relations, reverse=True)),
            dual(dual(p)),
            disjoint_union(p, other).induced(p.elements),
            disjoint_union(other, p).induced(p.elements)]
    assert all(q == p and hash(q) == hash(p) for q in same)
    assert len(set(same)) == 1
    assert len({q: i for i, q in enumerate(same)}) == 1
    assert len(set(same + [dual(p), other])) == 3


def test_empty_poset_is_a_chain():
    empty = Poset([])
    assert classify(empty) == CHAIN_TAME
    assert width(empty) == 0
    assert decompose(empty).blocks == []
    assert empty.up_sets() == [frozenset()]


def test_classify_long_chain_is_fast():
    names = ["c%d" % i for i in range(18)]
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        assert classify(Poset(names, list(zip(names, names[1:])))) == CHAIN_TAME
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01


def test_long_chain_is_built_and_classified_in_little_memory():
    # the closure of a 2,000-element chain has about two million pairs
    names = ["c%d" % i for i in range(2000)]
    tracemalloc.start()
    try:
        p = Poset(names, list(zip(names, names[1:])))
        assert classify(p) == CHAIN_TAME
        assert width(p) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_long_chain_subposets_duals_and_unions_reuse_the_closed_masks():
    # closing any of these again would cost seconds and tens of megabytes
    names = ["c%d" % i for i in range(2000)]
    others = ["d%d" % i for i in range(2000)]
    p = Poset(names, list(zip(names, names[1:])))
    q = Poset(others, list(zip(others, others[1:])))
    # (derived order, its least element, its greatest, the length of the chain)
    cases = [(lambda: p.induced(names[500:1500]), "c500", "c1499", 1000),
             (lambda: dual(p), "c1999", "c0", 2000),
             (lambda: disjoint_union(p, q), "d0", "d1999", 2000)]
    for derive, bottom, top, length in cases:
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            r = derive()
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 0.5 and peak < 10e6, (bottom, seconds, peak)
        assert len(r.up_set(bottom)) == len(r.down_set(top)) == length - 1
        assert r.less(bottom, top) and not r.less(top, bottom)


def test_width_of_a_long_fence_follows_long_paths():
    # a_i < b_i and a_(i+1) < b_i, the a listed last first: the augmenting
    # paths grow one step per a matched, past any recursion limit
    a, b = ["a%d" % i for i in range(1000)], ["b%d" % i for i in range(1000)]
    p = Poset(a[::-1] + b, list(zip(a, b)) + list(zip(a[1:], b)))
    assert width(p) == 1000


def test_width_of_a_top_first_chain_is_fast():
    # listed top first, every element's successors are all matched already
    # unless width takes an unmatched one before following a path
    names = ["c%d" % i for i in range(2000)]
    p = Poset(names[::-1], list(zip(names, names[1:])))
    t0 = time.perf_counter()
    assert width(p) == 1
    assert time.perf_counter() - t0 < 0.1
