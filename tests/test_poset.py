import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orthoposet.poset import (A8, CATALOG, CHAIN_TAME, ONE_PARAMETER,
                              TWO_WIDTH_TAME, WILD, BadSplit, NotTame, Poset,
                              PosetError, classify, decompose, dual,
                              essential_catalog_match,
                              generate_posets, is_isomorphic,
                              split_two_one_parameter, width)

MAX_ELEMENTS = 5
CLASS_COUNTS = [1, 2, 5, 16, 63, 318]  # isomorphism classes on 1..6 points

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


def assert_core_matches_reference(elements, rels):
    p = Poset(elements, rels)
    relations, hasse = ref_closure(elements, rels)
    assert p.relations == relations
    assert p.hasse == hasse
    for g in elements:
        assert p.up_set(g) == frozenset(h for a, h in relations if a == g)
        assert p.down_set(g) == frozenset(a for a, h in relations if h == g)
        for h in elements:
            assert p.less(g, h) == ((g, h) in relations)
            assert p.comparable(g, h) == ref_comparable(p, g, h)
    assert p.up_sets() == ref_up_sets(p)
    assert width(p) == ref_width(p)
    assert classify(p) == ref_classify(p)
    try:
        blocks = decompose(p).blocks
    except NotTame:
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


def test_induced_subposet():
    q = DIAMOND.induced(["a", "d"])
    assert q.elements == ("a", "d")
    assert q.less("a", "d")


def test_json_round_trip():
    q = Poset.from_json(json.dumps(DIAMOND.to_dict()))
    assert q == DIAMOND


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
    assert dec.pair_count == 1


def test_decompose_rejects_double_incomparability():
    with pytest.raises(NotTame):
        decompose(Poset(["a", "b", "c"], []))


def test_decompose_reassembles():
    for p in generate_posets(4):
        try:
            dec = decompose(p)
        except NotTame:
            continue
        seen = [g for b in dec.blocks for g in b]
        assert sorted(seen) == sorted(p.elements)


def test_split_two_one_parameter():
    p1, p2 = split_two_one_parameter(CATALOG["a4"], ("g1", "g2", "g5"))
    assert p1.elements == ("g1", "g2", "g5")
    assert p2.elements == ("g3", "g4", "g6")
    assert classify(p1) == ONE_PARAMETER
    with pytest.raises(BadSplit):
        split_two_one_parameter(CATALOG["a4"], ("g1",))
    with pytest.raises(BadSplit):
        split_two_one_parameter(CATALOG["a4"], ("g1", "g2", "g3", "g4", "g5", "g6"))


def test_dual_reverses_relations():
    d = dual(DIAMOND)
    assert d.less("d", "a")
    assert dual(d) == DIAMOND


def test_is_isomorphic():
    q = Poset(["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("q", "s"), ("r", "s")])
    assert is_isomorphic(DIAMOND, q)
    assert not is_isomorphic(DIAMOND, Poset(["p", "q", "r", "s"], [("p", "q")]))


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
    for n, expected in enumerate(CLASS_COUNTS, start=1):
        assert len(generate_posets(n)) == expected


def test_generate_posets_refuses_n_above_7_at_once():
    t0 = time.perf_counter()
    with pytest.raises(PosetError, match=r"generate_posets\(8\).*268435456 relation sets"):
        generate_posets(8)
    assert time.perf_counter() - t0 < 0.1


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


def test_width_of_a_top_first_chain_is_fast():
    # listed top first, every element's successors are all matched already
    # unless width takes an unmatched one before following a path
    names = ["c%d" % i for i in range(2000)]
    p = Poset(names[::-1], list(zip(names, names[1:])))
    t0 = time.perf_counter()
    assert width(p) == 1
    assert time.perf_counter() - t0 < 0.1
