"""End-to-end tests for the orthoposet command line."""

import contextlib
import dataclasses
import io
import json
import math
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthoposet import oracle
from orthoposet.cli import (EXIT_NO_REPRESENTATION, EXIT_OK, EXIT_VALIDATION,
                            EXIT_VERIFICATION, _dumps, _matrix, build_parser,
                            cmd_solve, main)
from orthoposet.poset import Poset
from orthoposet.spectrum import Character

ANTICHAIN4 = {"elements": ["g1", "g2", "g3", "g4"], "relations": []}
ALL_SIX_TENTHS = {"weights": {"g1": 0.6, "g2": 0.6, "g3": 0.6, "g4": 0.6}}
ALL_HALVES = {"weights": {"g1": 0.5, "g2": 0.5, "g3": 0.5, "g4": 0.5}}
# zero step constant, two discrete points of each part, a continuous series
ZERO_CAP = {"weights": {"g1": 0.3719, "g2": 0.6281, "g3": 0.6143, "g4": 0.3857}}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_antichain(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    code, out, _ = run(capsys, ["classify", "--poset", poset])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"] == "Wild"
    assert report["width"] == 4
    assert report["decomposition"] is None
    assert report["catalog"] == "(1,1,1,1)"


def test_classify_chain(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", {
        "elements": ["a", "b", "c"], "relations": [["a", "b"], ["b", "c"]]})
    code, out, _ = run(capsys, ["classify", "--poset", poset])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"] == "ChainTame"
    assert report["width"] == 1
    assert report["decomposition"]["blocks"] == [["a"], ["b"], ["c"]]
    assert report["catalog"] is None


def test_classify_text_format(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    code, out, _ = run(capsys, ["classify", "--poset", poset,
                                "--format", "text"])
    assert code == EXIT_OK
    assert "class: Wild" in out.splitlines()
    assert "width: 4" in out.splitlines()


def test_spectrum_of_a_pair(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json",
                       {"elements": ["x", "y"], "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": {"x": 0.6, "y": 0.6}})
    code, out, _ = run(capsys, ["spectrum", "--poset", poset,
                                "--character", character])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["discrete"] == [0.0, 0.6, 1.2]
    assert report["intervals"] == [[0, 0.6], [0.6, 1.2]]
    assert report["sigma"] == 1.2


def test_solve_chain_mode(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, _ = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1,g2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "chains"
    assert sorted(ch["lambda0"] for ch in report["chains"]) == [0.0, 0.6]
    assert all(ch["dimension"] == 3 for ch in report["chains"])
    # each three-point chain lifts along two up-set branches
    assert len(report["families"]) == 4
    for record in report["families"]:
        assert record["family"]["dimension"] == 3
        assert record["verification"]["passed"]
        assert record["verification"]["irreducible"]


def test_solve_scalar_mode(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {
        "weights": {"g1": 0.25, "g2": 0.25, "g3": 0.25, "g4": 0.25}})
    code, out, _ = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1,g2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "scalar"
    assert len(report["families"]) == 1
    family = report["families"][0]["family"]
    assert family["dimension"] == 1
    assert family["projections"]["g1"] == [[[1.0, 0.0]]]


def test_solve_below_unit_weight(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {
        "weights": {"g1": 0.2, "g2": 0.2, "g3": 0.2, "g4": 0.2}})
    code, _, err = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1,g2"])
    assert code == EXIT_NO_REPRESENTATION
    assert "no representation" in err


@pytest.mark.parametrize("weight, code", [(0.2, EXIT_NO_REPRESENTATION),
                                          (0.6, EXIT_OK)])
def test_solve_ignores_weights_outside_the_poset(tmp_path, capsys, weight, code):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    replies = []
    for extra in ({}, {"zz": 5.0}):
        character = write_json(tmp_path, "c.json", {"weights": dict(
            {g: weight for g in ANTICHAIN4["elements"]}, **extra)})
        replies.append(run(capsys, ["solve", "--poset", poset, "--character",
                                    character, "--split", "g1,g2"]))
    assert replies[0] == replies[1]
    assert replies[0][0] == code


def test_solve_builds_long_chains_by_default(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: 0.504 for g in ANTICHAIN4["elements"]}})
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", character, "--split", "g1,g2"])
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_OK and err == ""
    report = json.loads(out)
    assert [ch["dimension"] for ch in report["chains"]] == [63, 63]
    assert len(report["families"]) == 4
    for record in report["families"]:
        assert record["family"]["dimension"] == 63
        assert record["verification"]["passed"]
        assert record["verification"]["irreducible"]


@pytest.mark.parametrize("weight, flags, note", [
    (0.504, ["--max-dim", "8"], "--max-dim 8 leaves out chains of dimension 63, 63"),
    (0.502, [], "--max-dim 64 leaves out chains of dimension 251"),
])
def test_solve_names_the_chains_max_dim_leaves_out(tmp_path, capsys, weight,
                                                   flags, note):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: weight for g in ANTICHAIN4["elements"]}})
    code, out, err = run(capsys, ["solve", "--poset", poset, "--character",
                                  character, "--split", "g1,g2"] + flags)
    assert code == EXIT_NO_REPRESENTATION
    report = json.loads(out)
    assert report["chains"] == [] and report["families"] == []
    # the cap, not the theory, left every chain out
    longest = max(int(d) for d in note.rsplit("dimension ", 1)[1].split(", "))
    assert err == ("note: %s; the cap, not the theory, leaves the reply empty: "
                   "rerun with --max-dim %d to build them\n" % (note, longest))


def test_solve_notes_a_partial_cap_in_one_line(tmp_path, capsys):
    # split g3,g4 on these weights gives chains of dimension 2 and 3
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {
        "weights": {"g1": 0.6, "g2": 0.6, "g3": 0.8, "g4": 0.5}})
    code, out, err = run(capsys, ["solve", "--poset", poset, "--character",
                                  character, "--split", "g3,g4", "--max-dim", "2"])
    assert code == EXIT_OK
    assert [ch["dimension"] for ch in json.loads(out)["chains"]] == [2]
    assert err == "note: --max-dim 2 leaves out chains of dimension 3\n"


def test_parser_is_built_once_and_keeps_no_state():
    assert build_parser() is build_parser()
    argv = ["solve", "--poset", "p.json", "--character", "c.json", "--split", "g1"]
    capped = build_parser().parse_args(argv + ["--max-dim", "3"])
    assert (capped.max_dim, build_parser().parse_args(argv).max_dim) == (3, 64)


def test_solve_screens_heavy_element(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", {
        "elements": ["g1", "g2", "g3", "g4", "g5"], "relations": []})
    character = write_json(tmp_path, "c.json", {
        "weights": {"g1": 1.3, "g2": 0.6, "g3": 0.6, "g4": 0.6, "g5": 0.6}})
    code, out, _ = run(capsys, ["solve", "--poset", poset,
                                "--character", character,
                                "--split", "g1,g2,g3"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["filter"]["forced"] == [["g1", "0"]]
    assert len(report["families"]) == 4
    # the screened element is pinned to zero on the input poset
    for record in report["families"]:
        projections = record["family"]["projections"]
        assert list(projections) == ["g1", "g2", "g3", "g4", "g5"]
        assert not np.any(np.array(projections["g1"]))
        assert record["verification"]["forced_elements"] == ["g1"]
        assert not record["verification"]["essential"]


def test_solve_two_point_mode(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_HALVES)
    code, out, _ = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1,g2",
                                "--c", "0.25", "--gamma", "0,1"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "two-point"
    assert report["two_point"]["one_dim"] == [0.0, 0.5, 1.0]
    dims = [r["family"]["dimension"] for r in report["families"]]
    assert dims == [2, 1, 1, 1, 1, 1, 1]
    assert all(r["verification"]["passed"] for r in report["families"])
    continuous = report["families"][0]["family"]["projections"]
    largest_imag = max(abs(entry[1]) for matrix in continuous.values()
                       for row in matrix for entry in row)
    assert largest_imag > 0.4


def test_solve_lists_each_two_point_irreducible_once(tmp_path, capsys):
    # zero step constant: the dimension-2 chain from g1's end and the one
    # from g2's end are one representation
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ZERO_CAP)
    code, out, _ = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1,g2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mode"] == "two-point"
    assert [ch["dimension"] for ch in report["two_point"]["two_dim"]] == [2]
    dims = [r["family"]["dimension"] for r in report["families"]]
    assert dims == [1, 1, 2]


def test_solve_rejects_non_unimodular_gamma(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_HALVES)
    code, _, err = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1,g2",
                                "--c", "0.25", "--gamma", "2,0"])
    assert code == EXIT_VALIDATION
    assert "unimodular" in err


def test_solve_continuous_family_takes_the_pair_names(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", {"elements": ["y", "x", "v", "u"],
                                            "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": {
        "x": 0.5, "y": 0.5, "u": 0.5, "v": 0.5}})
    code, out, _ = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "y,x",
                                "--c", "0.25"])
    assert code == EXIT_OK
    family = json.loads(out)["families"][0]
    assert list(family["family"]["projections"]) == ["y", "x", "v", "u"]
    assert family["verification"]["passed"]


def test_solve_continuous_family_needs_two_pairs(tmp_path, capsys):
    # the first part is a pair above z, not a bare pair
    poset = write_json(tmp_path, "p.json", {"elements": ["z", "a", "b", "d", "e"],
                                            "relations": [["z", "a"], ["z", "b"]]})
    character = write_json(tmp_path, "c.json", {"weights": {
        "z": 0.3, "a": 0.5, "b": 0.5, "d": 0.5, "e": 0.5}})
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", character, "--split", "z,a,b",
                                  "--c", "0.25"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "two pairs" in err


FIVE = ["g1", "g2", "g3", "g4", "g5"]
# g5 below the pair g1, g2 ("low"), or above it ("a2"); g3, g4 loose
DEGENERATE = {"low": ([["g5", "g1"], ["g5", "g2"]], "g5,g1,g2"),
              "a2": ([["g1", "g5"], ["g2", "g5"]], "g1,g2,g5")}


@pytest.mark.parametrize("shape, g5, code, count, dims", [
    ("a2", 1.5, EXIT_NO_REPRESENTATION, 0, []),
    ("a2", 1.0, EXIT_OK, 1, [1]),
    ("low", 1.5, EXIT_OK, 4, [3]),
    ("low", 1.0, EXIT_OK, 4, [3]),
])
def test_solve_and_oracle_agree_on_pinned_elements(tmp_path, capsys, shape, g5,
                                                   code, count, dims):
    # a weight of one or more pins P_g5, and everything below it, to 0
    relations, split = DEGENERATE[shape]
    poset = write_json(tmp_path, "p.json", {"elements": FIVE, "relations": relations})
    character = write_json(tmp_path, "c.json", {"weights": dict(
        ALL_SIX_TENTHS["weights"], g5=g5)})
    got, out, _ = run(capsys, ["solve", "--poset", poset, "--character", character,
                               "--split", split])
    assert got == code
    records = json.loads(out)["families"]
    assert len(records) == count
    assert all(r["verification"]["passed"] for r in records)
    assert sorted({r["family"]["dimension"] for r in records}) == dims
    if shape == "a2" and g5 == 1.0:
        projections = records[0]["family"]["projections"]
        assert projections == {g: [[[1.0 if g == "g5" else 0.0, 0.0]]] for g in FIVE}
    got, out, _ = run(capsys, ["oracle", "--poset", poset, "--character", character,
                               "--split", split, "--dims", "1..4",
                               "--restarts", "4", "--iterations", "2000"])
    assert got == EXIT_OK
    report = json.loads(out)
    assert report["agree"]
    assert [r["dimension"] for r in report["rows"] if r["theory"]] == dims
    assert [r["dimension"] for r in report["rows"] if r["oracle"]] == dims
    assert all(r["spectrum_matched"] for r in report["rows"] if r["oracle"])


def test_solve_with_many_pinned_elements_returns_promptly(tmp_path, capsys):
    # the 0/1 solutions are listed without the up-sets of the pinned elements
    heavy = ["h%d" % i for i in range(24)]
    poset = write_json(tmp_path, "p.json", {"elements": ANTICHAIN4["elements"] + heavy,
                                            "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": dict(
        ALL_SIX_TENTHS["weights"], **{h: 1.5 for h in heavy})})
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["solve", "--poset", poset, "--character", character,
                                "--split", ",".join(["g1", "g2"] + heavy[:12])])
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_OK
    assert [r["family"]["dimension"] for r in json.loads(out)["families"]] == [3] * 4


def solve_families_verify_on_input(tmp_path, capsys, elements, relations,
                                   weights, split, extra=()):
    """Run solve, then verify every family it prints against the input poset.

    Returns the reply's families.
    """
    poset = write_json(tmp_path, "p.json", {"elements": elements,
                                            "relations": relations})
    character = write_json(tmp_path, "c.json", {"weights": weights})
    code, out, _ = run(capsys, ["solve", "--poset", poset, "--character", character,
                                "--split", ",".join(split)] + list(extra))
    assert code in (EXIT_OK, EXIT_NO_REPRESENTATION), (elements, weights, code)
    records = json.loads(out)["families"]
    for record in records:
        assert sorted(record["family"]["projections"]) == sorted(elements)
        family = write_json(tmp_path, "f.json", record["family"])
        code, out, _ = run(capsys, ["verify", family, "--poset", poset])
        assert code == EXIT_OK, (elements, relations, weights, out)
        assert json.loads(out) == record["verification"]
    return records


def degenerate_input(rng):
    """A quad split g1,g2 | g3,g4 plus elements that weights of one or more
    pin to zero: a heavy element below the first pair with a light one below
    it, and either loose heavy elements or a heavy element above the second
    pair. The last pins the whole second part, and solve answers in scalar
    mode on the parts as given."""
    elements = ["g1", "g2", "g3", "g4"]
    relations, part1, part2 = [], ["g1", "g2"], ["g3", "g4"]
    k = rng.choice([None, 4, 5, 6, 8, 12])  # None: zero step constant
    weights = {g: 0.5 if k is None else 0.5 + 1.0 / k for g in elements}

    def heavy():
        return rng.choice([1.0, rng.uniform(1.0, 2.0)])

    top = rng.random() < 0.2
    for i in range(0 if top else rng.randint(0, 2)):
        name = "h%d" % i
        elements.append(name)
        weights[name] = heavy()
        rng.choice([part1, part2]).append(name)
    if rng.random() < 0.5:
        elements += ["b", "c"]
        relations += [["b", "g1"], ["b", "g2"], ["c", "b"]]
        weights.update(b=heavy(), c=rng.uniform(0.1, 0.9))
        part1 += ["b", "c"]
    if top:
        elements.append("t")
        relations += [["g3", "t"], ["g4", "t"]]
        weights["t"] = heavy()
        part2.append("t")
    rng.shuffle(elements)
    extra = ["--c", "0.2"] if k is None and not top else []
    return elements, relations, weights, part1, extra


def test_every_solve_family_verifies_on_degenerate_input(tmp_path, capsys):
    rng = random.Random(13)
    lifted = 0
    for _ in range(40):
        elements, relations, weights, split, extra = degenerate_input(rng)
        records = solve_families_verify_on_input(tmp_path, capsys, elements,
                                                 relations, weights, split, extra)
        lifted += sum(1 for r in records if r["family"]["dimension"] > 1
                      and r["verification"]["forced_elements"])
    assert lifted > 0


def criterion_recipes(eps=0.0131):
    "(elements, relations, weights, first part) of the criterion-4 recipes"
    a = 0.5 + eps
    diamond = (["g1", "g2", "g5"], [["g1", "g5"], ["g2", "g5"]])
    a6 = (["g1", "g2", "g5", "g6"], [["g1", "g5"], ["g2", "g5"], ["g5", "g6"]])
    pair = (["g3", "g4"], [])
    a4 = (["g3", "g4", "g6"], [["g3", "g6"], ["g4", "g6"]])
    ends = {"g1": a, "g2": a, "g3": a, "g4": a}
    cases = [(a6, pair, dict(ends, g5=eps / 2, g6=1 / 3 - 7 * eps / 3))]
    for m in (1, 2):
        for a5 in (1 / (2 * m + 1) - 2 * eps,
                   1 / (4 * m + 2) - (4 * m + 3) * eps / (2 * m + 1),
                   1 / (4 * m) - 2 * eps - eps / (2 * m), 1 / (2 * m) - 2 * eps):
            cases.append((diamond, pair, dict(ends, g5=a5)))
        cases.append((diamond, a4, dict(ends, g5=eps / 2, g6=1 / (2 * m) - 2.5 * eps)))
    for (els1, rels1), (els2, rels2), weights in cases:
        yield els1 + els2, rels1 + rels2, weights, els1


@pytest.mark.parametrize("pin", [False, True])
def test_every_solve_family_verifies_on_the_criterion_recipes(tmp_path, capsys,
                                                              pin):
    built = 0
    for elements, relations, weights, split in criterion_recipes():
        if pin:
            # a heavy element below the first pair pins itself alone
            elements = elements + ["z"]
            relations = relations + [["z", "g1"], ["z", "g2"]]
            weights = dict(weights, z=1.25)
            split = split + ["z"]
        records = solve_families_verify_on_input(tmp_path, capsys, elements,
                                                 relations, weights, split)
        built += sum(1 for r in records if r["family"]["dimension"] > 1)
    assert built >= 11


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("relations, split, message", [
    ([["g1", "g3"]], "g1,g2", "joins the two parts"),
    ([], "g1,g2,bogus", "outside the poset"),
], ids=["cross-part-relation", "unknown-name"])
def test_bad_split_is_rejected(tmp_path, capsys, command, relations, split, message):
    poset = write_json(tmp_path, "p.json", {"elements": ANTICHAIN4["elements"],
                                            "relations": relations})
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, err = run(capsys, [command, "--poset", poset,
                                  "--character", character, "--split", split])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert message in err


FIFTHS = {g: 0.2 for g in ANTICHAIN4["elements"]}


# predict checks a split on the input poset before it screens the weights,
# and the parts only after pinning; solve and oracle both go through it
@pytest.mark.parametrize("poset_doc, weights, split, solve_code, theory", [
    (ANTICHAIN4, FIFTHS, "g1", EXIT_VALIDATION, None),
    (ANTICHAIN4, FIFTHS, "g1,g2,bogus", EXIT_VALIDATION, None),
    (dict(ANTICHAIN4, relations=[["g1", "g3"]]), FIFTHS, "g1,g2",
     EXIT_VALIDATION, None),
    (ANTICHAIN4, FIFTHS, "g1,g2", EXIT_NO_REPRESENTATION, []),
    ({"elements": FIVE, "relations": []},
     dict(ALL_SIX_TENTHS["weights"], g1=1.3, g5=0.6), "g1,g2,g3", EXIT_OK, [3]),
], ids=["one-element-part", "unknown-name", "cross-part-relation",
        "total-below-one", "pinned-element"])
def test_solve_and_oracle_share_one_input_gate(tmp_path, capsys, poset_doc,
                                               weights, split, solve_code, theory):
    poset = write_json(tmp_path, "p.json", poset_doc)
    character = write_json(tmp_path, "c.json", {"weights": weights})
    argv = ["--poset", poset, "--character", character, "--split", split]
    code, _, _ = run(capsys, ["solve"] + argv)
    assert code == solve_code
    code, out, _ = run(capsys, ["oracle"] + argv + [
        "--dims", "1..3", "--restarts", "4", "--iterations", "2000"])
    if theory is None:
        assert (code, out) == (EXIT_VALIDATION, "")
        return
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["agree"]
    assert [r["dimension"] for r in report["rows"] if r["theory"]] == theory


@pytest.mark.parametrize("weights, flags", [
    (ALL_SIX_TENTHS, ["--c", "0.25", "--gamma", "5,0"]),
    (ALL_SIX_TENTHS, ["--c", "0.25"]),
    (ALL_HALVES, ["--gamma", "0,1"]),
], ids=["chains-c-gamma", "chains-c", "two-point-gamma-alone"])
def test_solve_rejects_continuous_flags_outside_two_point(tmp_path, capsys,
                                                          weights, flags):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", weights)
    code, out, err = run(capsys, ["solve", "--poset", poset, "--character",
                                  character, "--split", "g1,g2"] + flags)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "two-point" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--seed", "1"],
    ["spectrum", "--character", "c.json", "--max-dim", "3"],
    ["solve", "--character", "c.json", "--split", "g1,g2", "--seed", "1"],
    ["oracle", "--character", "c.json", "--split", "g1,g2", "--max-dim", "3"],
    ["verify", "f.json", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_subcommands_reject_options_they_ignore(tmp_path, capsys, argv):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--poset", poset])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_round_trip(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    _, out, _ = run(capsys, ["solve", "--poset", poset,
                             "--character", character, "--split", "g1,g2"])
    record = json.loads(out)["families"][0]
    family = write_json(tmp_path, "f.json", record["family"])
    code, out, _ = run(capsys, ["verify", family, "--poset", poset])
    assert code == EXIT_OK
    assert json.loads(out) == record["verification"]


def test_verify_flags_corruption(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    _, out, _ = run(capsys, ["solve", "--poset", poset,
                             "--character", character, "--split", "g1,g2"])
    doc = json.loads(out)["families"][0]["family"]
    doc["projections"]["g1"][1][1][0] += 0.05
    family = write_json(tmp_path, "f.json", doc)
    code, out, _ = run(capsys, ["verify", family, "--poset", poset])
    assert code == EXIT_VERIFICATION
    report = json.loads(out)
    assert not report["passed"]
    assert report["max_residual"] > 1e-3


def test_oracle_agreement(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, _ = run(capsys, ["oracle", "--poset", poset,
                                "--character", character, "--split", "g1,g2",
                                "--dims", "1..2", "--restarts", "2",
                                "--iterations", "600"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["agree"]
    assert report["config"]["restarts"] == 2
    rows = [(r["dimension"], r["theory"], r["oracle"]) for r in report["rows"]]
    assert rows == [(1, False, False), (2, False, False)]


def test_oracle_matches_the_continuous_series(tmp_path, capsys):
    # the spectrum the search finds at d = 2 lies in the continuous series,
    # not on a predicted chain
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ZERO_CAP)
    code, out, _ = run(capsys, ["oracle", "--poset", poset,
                                "--character", character, "--split", "g1,g2",
                                "--dims", "2", "--restarts", "4",
                                "--iterations", "2000", "--seed", "0"])
    assert code == EXIT_OK
    [row] = json.loads(out)["rows"]
    assert row["theory"] and row["oracle"] and row["spectrum_matched"]


def test_oracle_rejects_a_missing_weight(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        "g1": 0.6, "g2": 0.6, "g3": 0.6}})
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", "g1,g2", "--dims", "1"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "missing weight for 'g4'" in err


def test_oracle_refuses_an_oversized_profile_grid(tmp_path, capsys):
    # quad 0.6 at dimension 100 has no rank profile, but listing them would
    # grow a prefix grid of 59M rows (1.28 GB)
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                      character, "--split", "g1,g2",
                                      "--dims", "100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "4 elements at dimension 100" in err and "4194304 grid rows" in err
    assert peak < 100e6


def test_oracle_refuses_a_search_over_the_lane_budget(tmp_path, capsys):
    # two 6-element chains at weights 1/4: 495 of 116,532 rank profiles at
    # dimension 8 pass the trace identity, 31,680 lanes at 64 restarts
    chains = [["%s%d" % (c, i) for i in range(6)] for c in "ab"]
    poset = write_json(tmp_path, "p.json", {
        "elements": chains[0] + chains[1],
        "relations": [[c[i], c[i + 1]] for c in chains for i in range(5)]})
    character = write_json(tmp_path, "c.json", {
        "weights": {g: 0.25 for c in chains for g in c}})
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", ",".join(chains[0]),
                                  "--dims", "8"])
    seconds = time.perf_counter() - t0
    assert (code, out) == (EXIT_VALIDATION, "")
    assert ("31680 lanes (64 restarts x 495 rank profiles" in err
            and "limit of 4096" in err)
    assert seconds < 10.0


def test_oracle_checks_the_lane_budget_of_every_dimension_first(tmp_path, capsys):
    # the same input at --dims 1..4: dimension 4 needs 4,480 lanes, so the
    # command must refuse before it searches dimensions 1 to 3
    chains = [["%s%d" % (c, i) for i in range(6)] for c in "ab"]
    poset = write_json(tmp_path, "p.json", {
        "elements": chains[0] + chains[1],
        "relations": [[c[i], c[i + 1]] for c in chains for i in range(5)]})
    character = write_json(tmp_path, "c.json", {
        "weights": {g: 0.25 for c in chains for g in c}})
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", ",".join(chains[0]),
                                  "--dims", "1..4"])
    seconds = time.perf_counter() - t0
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "dimension 4 needs 4480 lanes" in err
    assert seconds < 2.0


@pytest.mark.parametrize("tol, shift, code, reported", [
    ("1e-6", 1e-8, EXIT_VERIFICATION, 1e-10),
    ("1e-9", 1e-8, EXIT_VERIFICATION, 1e-10),
    ("1e-12", 0.0, EXIT_OK, 1e-12),
])
def test_verify_never_checks_looser_than_the_verifier(tmp_path, capsys, tol,
                                                       shift, code, reported):
    # a --tol above the verifier's 1e-10 is clamped to it; a tighter one holds
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    _, out, _ = run(capsys, ["solve", "--poset", poset,
                             "--character", character, "--split", "g1,g2"])
    doc = json.loads(out)["families"][0]["family"]
    doc["projections"]["g1"][0][1][0] += shift
    family = write_json(tmp_path, "f.json", doc)
    got, out, _ = run(capsys, ["verify", family, "--poset", poset, "--tol", tol])
    assert got == code
    assert json.loads(out)["tol"] == reported


@pytest.mark.parametrize("argv_tail", [
    ["--tol", "-1"],
    ["--tol", "0"],
    ["--tol", "inf"],
    ["--tol", "nan"],
])
def test_bad_tolerance(tmp_path, capsys, argv_tail):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    code, _, err = run(capsys, ["classify", "--poset", poset] + argv_tail)
    assert code == EXIT_VALIDATION
    assert "tolerance" in err


def test_solve_rejects_nan_gamma(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_HALVES)
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", character, "--split", "g1,g2",
                                  "--c", "0.25", "--gamma", "nan,0"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "unimodular" in err


def test_oracle_rejects_empty_dimension_range(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--poset", poset, "--character", character,
              "--split", "g1,g2", "--dims", "5..3"])
    assert exc.value.code == EXIT_VALIDATION
    assert "names no dimension" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("projections"),
    lambda doc: doc.update(projections={}),
    lambda doc: doc["projections"].pop("g2"),
    lambda doc: doc["character"]["weights"].pop("g2"),
], ids=["no-projections", "empty-projections", "missing-element",
        "missing-weight"])
def test_verify_rejects_malformed_family(tmp_path, capsys, edit):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    _, out, _ = run(capsys, ["solve", "--poset", poset,
                             "--character", character, "--split", "g1,g2"])
    doc = json.loads(out)["families"][0]["family"]
    edit(doc)
    family = write_json(tmp_path, "f.json", doc)
    code, out, err = run(capsys, ["verify", family, "--poset", poset])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "family" in err


def test_verify_refuses_an_oversized_exact_commutant(tmp_path, capsys):
    # two scalar projections: A has one repeated eigenvalue, so the exact
    # path would need a stack of 2 * 60^4 entries
    poset = write_json(tmp_path, "p.json", {"elements": ["x", "y"], "relations": []})
    eye = [[[1.0 if i == j else 0.0, 0.0] for j in range(60)] for i in range(60)]
    family = write_json(tmp_path, "f.json", {
        "dimension": 60, "projections": {"x": eye, "y": eye},
        "character": {"weights": {"x": 0.5, "y": 0.5}}})
    code, out, err = run(capsys, ["verify", family, "--poset", poset])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "2 projections at n = 60" in err and "limit of 16777216" in err


def test_verify_answers_a_threefold_summand_at_n_63(tmp_path, capsys):
    # F (+) F (+) F, F a dim-21 quad family, conjugated by a seeded unitary:
    # the exact commutant is M_3, solved on 21 clusters of 3 eigenvalues
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: 0.525 for g in ANTICHAIN4["elements"]}})
    _, out, _ = run(capsys, ["solve", "--poset", poset,
                             "--character", character, "--split", "g1,g2"])
    doc = json.loads(out)["families"][0]["family"]
    assert doc["dimension"] == 21
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((63, 63))
                        + 1j * rng.standard_normal((63, 63)))
    for g, rows in doc["projections"].items():
        p = u @ np.kron(np.eye(3), np.array(rows) @ [1, 1j]) @ u.conj().T
        doc["projections"][g] = np.stack([p.real, p.imag], axis=-1).tolist()
    doc["dimension"] = 63
    family = write_json(tmp_path, "f.json", doc)
    code, out, err = run(capsys, ["verify", family, "--poset", poset])
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert report["passed"] and report["commutant_dim"] == 9
    assert report["irreducible"] is False


def test_validation_errors(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")

    code, _, err = run(capsys, ["classify", "--poset", str(tmp_path / "no.json")])
    assert code == EXIT_VALIDATION and "error:" in err

    code, _, err = run(capsys, ["classify", "--poset", str(junk)])
    assert code == EXIT_VALIDATION and "parse error" in err

    code, _, err = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1"])
    assert code == EXIT_VALIDATION and "not one-parameter" in err

    short = write_json(tmp_path, "short.json", {"weights": {"g1": 0.6}})
    code, _, err = run(capsys, ["solve", "--poset", poset,
                                "--character", short, "--split", "g1,g2"])
    assert code == EXIT_VALIDATION and "missing weight" in err


def test_solve_rejects_infinite_weight(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = tmp_path / "c.json"
    character.write_text('{"weights": {"g1": Infinity, "g2": 0.6, "g3": 0.6, "g4": 0.6}}')
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", str(character), "--split", "g1,g2"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("doc", [
    {"elements": [["g1"], "g2"], "relations": []},
    {"elements": [1, 2], "relations": []},
    {"elements": ["a", "b"], "relations": [["a", ["b"]]]},
    {"elements": "ab", "relations": []},
])
def test_classify_rejects_non_string_elements(tmp_path, capsys, doc):
    poset = write_json(tmp_path, "p.json", doc)
    code, out, err = run(capsys, ["classify", "--poset", poset])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "strings" in err


def test_classify_empty_poset(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", {"elements": [], "relations": []})
    code, out, _ = run(capsys, ["classify", "--poset", poset])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"] == "ChainTame"
    assert report["width"] == 0
    assert report["decomposition"]["blocks"] == []


def test_classify_wide_poset_returns_promptly(tmp_path, capsys):
    # 25 elements in five interleaved chains: width 5, so wild
    names = ["x%d" % i for i in range(25)]
    rels = [[names[i], names[i + 5]] for i in range(20)]
    poset = write_json(tmp_path, "p.json", {"elements": names, "relations": rels})
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["classify", "--poset", poset])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"] == "Wild"
    assert report["width"] == 5
    assert report["decomposition"] is None


def test_oracle_lists_each_dimension_once(tmp_path, capsys, monkeypatch):
    # the lane budget and the search share one listing per dimension
    calls = []
    listed = oracle.rank_profiles

    def counted(p, chi, dimension):
        calls.append(dimension)
        return listed(p, chi, dimension)

    monkeypatch.setattr(oracle, "rank_profiles", counted)
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, _ = run(capsys, ["oracle", "--poset", poset, "--character",
                                character, "--split", "g1,g2", "--dims", "1..3",
                                "--restarts", "4"])
    assert code == EXIT_OK
    assert calls == [1, 2, 3]
    monkeypatch.undo()
    cfg = oracle.SearchConfig(1, restarts=4)
    quad = Poset(ANTICHAIN4["elements"], [])
    found = [oracle.search_numeric(quad, Character(ALL_SIX_TENTHS["weights"]),
                                   dataclasses.replace(cfg, dimension=d),
                                   require_irreducible=True) is not None
             for d in (1, 2, 3)]
    assert [row["oracle"] for row in json.loads(out)["rows"]] == found == [
        False, False, True]


# floats that json writes in every form: signed zero, subnormal, huge,
# long reprs, and the non-finite ones it spells NaN and Infinity
FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e16, -1e16, 1.5e-7, 5e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, 123456789.12345678,
          math.nan, math.inf, -math.inf]
KEYS = ["plain", "", 'say "hi"', "back\\slash", "tab\there", "nul\x00",
        "bell\x07", "line\nbreak", "\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600",
        "\u2028"]
SCALARS = [True, False, None, 0, -7, 2 ** 70, "text", "\u00e9\x1f\"", 1.0]


def random_float(rng):
    if rng.random() < 0.3:
        return rng.choice(FLOATS)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)


def random_matrix(rng):
    """Rows of [re, im] pairs of finite floats, ragged at times, and at
    times spoiled by one entry that is not such a pair."""
    width = rng.randint(1, 4)
    m = [[[random_float(rng), random_float(rng)]
          for _ in range(width if rng.random() < 0.8 else rng.randint(1, 4))]
         for _ in range(rng.randint(1, 4))]
    for row in m:
        for entry in row:
            entry[:] = [x if math.isfinite(x) else 0.5 for x in entry]
    if rng.random() < 0.5:
        row = rng.choice(m)
        i = rng.randrange(len(row))
        row[i] = rng.choice([
            [math.nan, 0.0], [1.0, math.inf], [1, 0.0], [0.0, True],
            [0.0, 1.0, 2.0], [0.0], (0.0, 1.0), [0.0, "x"], [[0.0, 1.0], 0.0]])
    return m


def random_document(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return random_float(rng) if rng.random() < 0.5 else rng.choice(SCALARS)
    if roll < 0.45:
        return random_matrix(rng)
    if roll < 0.5:
        return rng.choice([[], {}, (), [[]], [{}], {"k": []}])
    size = rng.randint(1, 4)
    if roll < 0.7:
        items = [random_document(rng, depth + 1) for _ in range(size)]
        return tuple(items) if rng.random() < 0.1 else items
    if roll < 0.75:
        # keys json.dumps turns into strings itself
        keys = [1, 2.5, True, None, "s"]
    else:
        keys = KEYS
    return {rng.choice(keys): random_document(rng, depth + 1)
            for _ in range(size)}


def test_writer_matches_json_dumps_byte_for_byte():
    rng = random.Random(11)
    docs = [random_document(rng) for _ in range(3000)]
    docs += [FLOATS, KEYS, SCALARS, {k: k for k in KEYS}, [[[0.5, -0.0]]],
             {"projections": {"g1": [[[1.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [1.0, 0.0]]]}}]
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2), doc


@pytest.mark.parametrize("m, direct", [
    ([[[0.5, -0.0]]], True),
    ([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]], True),  # ragged rows
    ([[[1.0, 2.0], [3.0, math.nan]]], False),
    ([[[1.0, 2.0], [-math.inf, 0.0]]], False),
    ([[[1.0, 2.0], [3, 4.0]]], False),
    ([[[1.0, 2.0], [3.0, 4.0, 5.0]]], False),
    ([[[1.0, 2.0]], []], False),
    ([[(1.0, 2.0)]], False),
    ([[[True, 2.0]]], False),
])
def test_writer_writes_only_finite_float_matrices_itself(m, direct):
    # everything else, whatever the shape, goes to json.dumps
    assert (_matrix(m, 2) is not None) == direct
    assert _dumps({"m": m}) == json.dumps({"m": m}, indent=2)


@pytest.mark.parametrize("weight, dimension", [(0.6, 3), (0.504, 63)])
def test_solve_prints_json_dumps_of_its_report(tmp_path, capsys, weight,
                                               dimension):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: weight for g in ANTICHAIN4["elements"]}})
    argv = ["solve", "--poset", poset, "--character", character, "--split",
            "g1,g2"]
    report, code = cmd_solve(build_parser().parse_args(argv))
    assert [rec["family"]["dimension"] for rec in report["families"]] == [
        dimension] * 4
    assert run(capsys, argv) == (code, json.dumps(report, indent=2) + "\n", "")


# The README's quickstart inputs, plus the family file written from solve.
README_INPUTS = {
    "quad.json": ANTICHAIN4,
    "pair.json": {"elements": ["g1", "g2"], "relations": []},
    "chi.json": ALL_SIX_TENTHS,
    "half.json": ALL_HALVES,
}
README_COMMANDS = {
    "classify": ["classify", "--poset", "quad.json"],
    "spectrum": ["spectrum", "--poset", "pair.json", "--character", "chi.json"],
    "solve": ["solve", "--poset", "quad.json", "--character", "chi.json",
              "--split", "g1,g2"],
    "solve --c": ["solve", "--poset", "quad.json", "--character", "half.json",
                  "--split", "g1,g2", "--c", "0.25"],
    "oracle": ["oracle", "--poset", "quad.json", "--character", "chi.json",
               "--split", "g1,g2", "--dims", "1..3"],
    "verify": ["verify", "family.json", "--poset", "quad.json"],
}
SCHEMA = Path(__file__).with_name("cli_schema.json")


def shape(value):
    """The JSON type tree of value, without its numbers.

    Objects keep their key order; arrays list the distinct shapes of their
    items in order of first appearance.
    """
    if isinstance(value, dict):
        return {"object": [[key, shape(v)] for key, v in value.items()]}
    if isinstance(value, list):
        items = []
        for v in value:
            if shape(v) not in items:
                items.append(shape(v))
        return {"array": items}
    return {bool: "bool", int: "int", float: "float", str: "str",
            type(None): "null"}[type(value)]


def cli_shapes(directory):
    """{command: {"json": shape of the reply, "text": its line keys}}."""
    directory = Path(directory)
    for name, doc in README_INPUTS.items():
        (directory / name).write_text(json.dumps(doc))
    shapes = {}
    for label, argv in README_COMMANDS.items():
        argv = [str(directory / a) if a.endswith(".json") else a for a in argv]
        replies = []
        for fmt in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv + ["--format", fmt])
            assert code == EXIT_OK, (label, fmt, code)
            replies.append(out.getvalue())
        report = json.loads(replies[0])
        if label == "solve":
            family = report["families"][0]["family"]
            (directory / "family.json").write_text(json.dumps(family))
        shapes[label] = {"json": shape(report),
                         "text": [line.split(": ", 1)[0]
                                  for line in replies[1].splitlines()]}
    return shapes


def test_cli_schema(tmp_path):
    # key order and value types of every README command's reply; the
    # numbers themselves differ across numpy and BLAS builds
    assert cli_shapes(tmp_path) == json.loads(SCHEMA.read_text())


if __name__ == "__main__":
    # rewrite the pinned schema: python tests/test_cli.py (with src importable)
    with tempfile.TemporaryDirectory() as work:
        SCHEMA.write_text(json.dumps(cli_shapes(work), indent=1) + "\n")
