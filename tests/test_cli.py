"""End-to-end tests for the orthoposet command line."""

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthoposet import cli, oracle
from orthoposet.builder import BuilderError
from orthoposet.cli import (EXIT_NO_REPRESENTATION, EXIT_OK, EXIT_VALIDATION,
                            EXIT_VERIFICATION, _dumps, _pairs, build_parser,
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


@pytest.mark.parametrize("weights", [(0.3, 0.9, 0.35, 0.45), (0.25, 0.25, 0.25, 0.25)],
                         ids=["two-point", "scalar"])
@pytest.mark.parametrize("max_dim", ["0", "-1"])
def test_solve_rejects_max_dim_below_one(tmp_path, capsys, weights, max_dim):
    # the cap would leave out every chain, or keep only the 0/1 solutions
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": dict(zip(
        ANTICHAIN4["elements"], weights))})
    code, out, err = run(capsys, ["solve", "--poset", poset, "--character",
                                  character, "--split", "g1,g2", "--max-dim", max_dim])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "error: --max-dim must be at least 1, got %s\n" % max_dim


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
    # a zero gamma is falsy, and must not stand for the default 1
    for gamma in ("2,0", "0", "0,0"):
        code, _, err = run(capsys, ["solve", "--poset", poset,
                                    "--character", character, "--split", "g1,g2",
                                    "--c", "0.25", "--gamma", gamma])
        assert code == EXIT_VALIDATION, gamma
        assert "not unimodular" in err


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


def test_solve_on_two_long_chains_lists_only_unit_weight_up_sets(tmp_path, capsys):
    # two 200-element chains at weights 1/400 have 201^2 up-sets, and the
    # screen forces every element; only the whole poset weighs one, and a
    # walk that listed every up-set first took over 6 s here
    n = 200
    chains = [["%s%d" % (c, i) for i in range(n)] for c in "ab"]
    elements = [g for pair in zip(*chains) for g in pair]
    poset = write_json(tmp_path, "p.json", {"elements": elements, "relations": [
        [g, h] for chain in chains for g, h in zip(chain, chain[1:])]})
    character = write_json(tmp_path, "c.json", {"weights": dict.fromkeys(elements, 1 / (2 * n))})
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["solve", "--poset", poset, "--character", character,
                                "--split", ",".join(chains[0])])
    assert time.perf_counter() - t0 < 3.0
    assert code == EXIT_OK
    reply = json.loads(out)
    assert reply["mode"] == "scalar"
    assert reply["filter"]["forced"] == [[g, "I"] for g in elements]
    [record] = reply["families"]
    assert record["verification"]["passed"]
    assert record["family"]["projections"] == dict.fromkeys(elements, [[[1.0, 0.0]]])


def test_unit_weight_at_zero_tolerance_does_not_follow_the_hash_seed(tmp_path):
    # 0.1 + 0.2 + 0.7 is 1.0 in element order but 0.9999999999999999 in
    # others, so a sum in set order decided the 0/1 solution by the seed
    poset = write_json(tmp_path, "p.json", {"elements": ["a", "b", "c"], "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": {"a": 0.1, "b": 0.2, "c": 0.7}})
    args = ["--poset", poset, "--character", character, "--split", "a", "--tol", "1e-17"]
    replies = {}
    for command in (["solve"], ["oracle", "--dims", "1", "--restarts", "2"]):
        for hash_seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=str(Path(cli.__file__).parent.parent))
            done = subprocess.run([sys.executable, "-m", "orthoposet"] + command + args,
                                  env=env, capture_output=True, text=True)
            replies.setdefault(command[0], set()).add(
                (done.returncode, done.stdout, done.stderr))
    [(code, out, _)] = replies["solve"]
    assert code == EXIT_OK
    assert [r["family"]["dimension"] for r in json.loads(out)["families"]] == [1]
    [(code, out, _)] = replies["oracle"]
    assert code == EXIT_OK
    assert json.loads(out)["agree"]


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
    it, loose heavy elements, and a heavy element above the second pair.
    The last pins the whole second part, and solve answers in scalar mode.
    The one-parameter check runs on what is left of each part, so a loose
    heavy element never makes a part wild, with or without the top one."""
    elements = ["g1", "g2", "g3", "g4"]
    relations, part1, part2 = [], ["g1", "g2"], ["g3", "g4"]
    k = rng.choice([None, 4, 5, 6, 8, 12])  # None: zero step constant
    weights = {g: 0.5 if k is None else 0.5 + 1.0 / k for g in elements}

    def heavy():
        return rng.choice([1.0, rng.uniform(1.0, 2.0)])

    top = rng.random() < 0.2
    for i in range(rng.randint(0, 2)):
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


# runs main in a fresh interpreter and prints [exit code, peak RSS in kB,
# stdout]; the peak is the kernel's VmHWM, as ru_maxrss would count the
# peak of the process that spawned it too
MEASURED = "\n".join([
    "import contextlib, io, json, sys",
    "import orthoposet.cli as cli",
    "out = io.StringIO()",
    "with contextlib.redirect_stdout(out):",
    "    code = cli.main(sys.argv[1:])",
    "with open('/proc/self/status', encoding='ascii') as fh:",
    "    peak = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))",
    "print(json.dumps([code, peak, out.getvalue()]))"])


def run_measured(argv):
    """(exit code, stdout, stderr, peak RSS in MB, wall seconds) of main(argv)
    in a child process of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", MEASURED] + argv,
                          env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr
    code, peak_kb, out = json.loads(done.stdout)
    return code, out, done.stderr, peak_kb / 1024, seconds


@pytest.mark.parametrize("dims", ["50000000", str(10 ** 20)])
def test_oracle_refuses_the_first_element_of_an_oversized_grid(tmp_path, dims):
    # the grid's first element alone has dims + 1 ranks: 200 MB of them at
    # 5e7, and past numpy's largest array at 1e20
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, err, peak_mb, _ = run_measured(
        ["oracle", "--poset", poset, "--character", character, "--split", "g1,g2",
         "--dims", dims])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == ("error: rank profiles of 4 elements at dimension %s need more "
                   "than 4194304 grid rows\n" % dims)
    assert peak_mb < 100


@pytest.mark.parametrize("restarts", [10 ** 7, 10 ** 23 - 1])
def test_oracle_without_lanes_takes_any_restart_count(tmp_path, restarts):
    # quad 0.6 lists no rank profile at dimension 2, so no lane starts and
    # no restart is counted out
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, err, peak_mb, seconds = run_measured(
        ["oracle", "--poset", poset, "--character", character, "--split", "g1,g2",
         "--dims", "2", "--restarts", str(restarts)])
    assert (code, err) == (EXIT_OK, "")
    reply = json.loads(out)
    assert reply["rows"] == [{"dimension": 2, "theory": False, "oracle": False,
                              "agree": True, "spectrum_matched": None}]
    assert reply["config"]["restarts"] == restarts
    assert peak_mb < 100 and seconds < 5.0


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
    assert ("dimension 8 keeps more than 42 rank profiles" in err
            and "cap at 64 restarts under the limits of 4096 lanes" in err)
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
    assert "dimension 4 keeps more than 64 rank profiles" in err
    assert seconds < 2.0


def test_oracle_lists_a_large_dimension_range_lazily(tmp_path, capsys):
    # unit weights keep every rank profile: dimension 6 is refused (84
    # profiles, 5,376 lanes) before the other 999,994 are listed
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: 1.0 for g in ANTICHAIN4["elements"]}})
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", "g1,g2",
                                  "--dims", "1..1000000"])
    seconds = time.perf_counter() - t0
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "search at dimension 6 keeps more than 64 rank profiles" in err
    assert seconds < 0.5


def test_oracle_starts_no_pool_without_lanes(tmp_path, capsys):
    # no rank profile of a = 0.5, b = 0.7 has trace 600; the pool's state
    # alone would be 172.8M float64 entries (1.38 GB)
    poset = write_json(tmp_path, "p.json", {"elements": ["a", "b"], "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": {"a": 0.5, "b": 0.7}})
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, ["oracle", "--poset", poset, "--character",
                                    character, "--split", "a", "--dims", "600",
                                    "--restarts", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == [{"dimension": 600, "theory": False,
                                        "oracle": False, "agree": True,
                                        "spectrum_matched": None}]
    assert peak < 20e6


def test_oracle_refuses_an_oversized_pool_state(tmp_path, capsys):
    # one full-rank lane at dimension 2000: 1.92G entries of pool state
    poset = write_json(tmp_path, "p.json", {"elements": ["a", "b"], "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": {"a": 0.5, "b": 0.5}})
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", "a", "--dims", "2000",
                                  "--restarts", "1"])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert ("['a', 'b'] at dimension 2000 needs 1920000000 pool state entries"
            in err and "limit of 16777216" in err)


def test_oracle_refuses_an_oversized_lane_work(tmp_path, capsys):
    # 1,891 lanes, under MAX_LANES, yet each costs 3 x 60^3 per iteration
    poset = write_json(tmp_path, "p.json", {"elements": ["a", "b", "c"], "relations": []})
    character = write_json(tmp_path, "c.json", {"weights": {
        g: 1.0 for g in ("a", "b", "c")}})
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", "a", "--dims", "60",
                                  "--restarts", "1", "--iterations", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (EXIT_VALIDATION, "")
    assert ("dimension 60 keeps more than 25 rank profiles" in err
            and "16777216 units of lane work" in err)


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


@pytest.mark.parametrize("gamma", ["1", "1,0"])
def test_solve_takes_a_real_gamma(tmp_path, capsys, gamma):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_HALVES)
    argv = ["solve", "--poset", poset, "--character", character,
            "--split", "g1,g2", "--c", "0.25"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK
    assert run(capsys, argv + ["--gamma", gamma]) == (code, out, err)


def test_oracle_rejects_empty_dimension_range(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--poset", poset, "--character", character,
              "--split", "g1,g2", "--dims", "5..3"])
    assert exc.value.code == EXIT_VALIDATION
    assert "names no dimension" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--dims", "1,x"],
     "argument --dims: '1,x' is neither a range such as 1..4 nor a list such as 1,3"),
    (["oracle", "--dims", "1..x"],
     "argument --dims: '1..x' is neither a range such as 1..4 nor a list such as 1,3"),
    (["solve", "--gamma", "abc"],
     "argument --gamma: 'abc' is neither RE nor RE,IM, such as 1 or 0.6,0.8"),
    (["solve", "--gamma", "1,2,3"],
     "argument --gamma: '1,2,3' is neither RE nor RE,IM, such as 1 or 0.6,0.8"),
], ids=["dims-list", "dims-range", "gamma-word", "gamma-triple"])
def test_malformed_dims_and_gamma_name_the_accepted_forms(tmp_path, capsys, argv,
                                                          message):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--poset", poset, "--character", character, "--split", "g1,g2"])
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.endswith(": error: %s\n" % message) and "_parse" not in err


def test_oracle_leaves_search_settings_it_is_not_given_to_search_config(tmp_path, capsys):
    # no search at d = 1: no 0/1 ranks weigh 1 at 0.6 each
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    argv = ["oracle", "--poset", poset, "--character", character, "--split",
            "g1,g2", "--dims", "1"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    config = json.loads(out)["config"]
    assert (config["restarts"], config["max_iterations"], config["seed"]) == (64, 5000, 0)
    assert config == dataclasses.asdict(oracle.SearchConfig(1))
    code, out, _ = run(capsys, argv + ["--iterations", "7"])
    assert json.loads(out)["config"] == dataclasses.asdict(
        oracle.SearchConfig(1, max_iterations=7))


def test_only_the_oracle_command_loads_the_oracle(tmp_path):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    script = "\n".join([
        "import contextlib, io, sys",
        "import orthoposet.cli as cli",
        "loaded = ['orthoposet.oracle' in sys.modules]",
        "for command in (['solve'], ['oracle', '--dims', '1']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = cli.main(command + sys.argv[1:])",
        "    loaded.append((code, 'orthoposet.oracle' in sys.modules))",
        "print(loaded)"])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script, "--poset", poset,
                           "--character", character, "--split", "g1,g2"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[False, (0, False), (0, True)]\n"


@pytest.mark.parametrize("weight, dims", [(0.6, "3"), (0.7, "1")])
def test_oracle_rejects_a_negative_seed(tmp_path, capsys, weight, dims):
    # at 0.7 and dimension 1 no lane runs, so numpy never sees the seed
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: weight for g in ANTICHAIN4["elements"]}})
    code, out, err = run(capsys, ["oracle", "--poset", poset, "--character",
                                  character, "--split", "g1,g2", "--dims", dims,
                                  "--seed", "-1"])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "seed must be non-negative, got -1" in err


@pytest.mark.parametrize("edit, fragment", [
    (lambda doc: doc.pop("projections"), "family document needs"),
    (lambda doc: doc.update(projections={}), "family projections [] do not match"),
    (lambda doc: doc.update(projections=[1, 2]), "family document needs"),
    (lambda doc: doc.update(projections="g1"), "family document needs"),
    (lambda doc: doc["projections"].pop("g2"), "do not match the poset elements"),
    (lambda doc: doc["character"]["weights"].pop("g2"),
     "family character misses weights for ['g2']"),
    (lambda doc: doc.update(projections={g: [[[0.0, 0.0]] * 3] * 2 for g in doc["projections"]}),
     "projections must be square matrices of one size, got [(2, 3)]"),
    (lambda doc: doc["character"]["weights"].update(g2=True),
     "weight for 'g2' must be a number, got True"),
    (lambda doc: doc["projections"]["g3"][1].__setitem__(0, [0.0, 10 ** 400]),
     "entry of the projection for 'g3' is too large for a float"),
    (lambda doc: doc["projections"]["g3"][1].__setitem__(0, [True, 0.0]),
     "entry of the projection for 'g3' must be a number, got True"),
], ids=["no-projections", "empty-projections", "list-projections",
        "string-projections", "missing-element",
        "missing-weight", "non-square", "bool-weight", "401-digit-entry", "bool-entry"])
def test_verify_rejects_malformed_family(tmp_path, capsys, edit, fragment):
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
    assert fragment in err


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
    code, _, err = run(capsys, ["classify", "--poset", str(tmp_path / "no.json")])
    assert code == EXIT_VALIDATION and "error:" in err

    # a file that does not parse, is nested too deeply or is not UTF-8 is named
    junk = tmp_path / "junk.json"
    for data, message in ((b"{not json", "parse error at line 1 column 2"),
                          (b"[" * 100_000, "nested too deeply to parse"),
                          (b'{"elements": ["\xff"]}', "not UTF-8: 'utf-8' codec "
                                                     "can't decode byte 0xff")):
        junk.write_bytes(data)
        code, out, err = run(capsys, ["classify", "--poset", str(junk)])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: %s: %s" % (junk, message)), err

    code, _, err = run(capsys, ["solve", "--poset", poset,
                                "--character", character, "--split", "g1"])
    assert code == EXIT_VALIDATION and "not one-parameter" in err

    short = write_json(tmp_path, "short.json", {"weights": {"g1": 0.6}})
    code, _, err = run(capsys, ["solve", "--poset", poset,
                                "--character", short, "--split", "g1,g2"])
    assert code == EXIT_VALIDATION and "missing weight" in err


def test_load_reads_utf8_whatever_the_locale(tmp_path):
    poset = tmp_path / "p.json"
    poset.write_bytes(json.dumps({"elements": ["\u00e9", "b"], "relations": []},
                                 ensure_ascii=False).encode("utf-8"))
    # the C locale without coercion reads files as ASCII by default
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "orthoposet", "classify",
                           "--poset", str(poset)], env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert json.loads(done.stdout)["width"] == 2


# JSON values that are not numbers a float holds; bools count as ints in Python
NOT_FLOATS = {"true": "must be a number, got True", '"0.6"': "must be a number, got '0.6'",
              "null": "must be a number, got None", "[0.6]": "must be a number, got [0.6]",
              '"abc"': "must be a number, got 'abc'",
              "1" + "0" * 400: "is too large for a float"}


@pytest.mark.parametrize("value", NOT_FLOATS, ids=["true", "string", "null", "list",
                                                   "word", "401-digits"])
def test_solve_takes_a_weight_only_as_a_float(tmp_path, capsys, value):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = tmp_path / "c.json"
    character.write_text('{"weights": {"g1": 0.6, "g2": 0.6, "g3": %s, "g4": 0.6}}' % value)
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", str(character), "--split", "g1,g2"])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "error: weight for 'g3' %s\n" % NOT_FLOATS[value]


def test_solve_rejects_infinite_weight(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = tmp_path / "c.json"
    character.write_text('{"weights": {"g1": Infinity, "g2": 0.6, "g3": 0.6, "g4": 0.6}}')
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", str(character), "--split", "g1,g2"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "finite" in err


HUGE_PAIR = {"weights": {"g1": 1e308, "g2": 1e308, "g3": 0.6, "g4": 0.6}}


# the total overflows a float, or twice it does (sigma of g1, g2 < g3)
@pytest.mark.parametrize("command, poset_doc, weights, extra", [
    ("solve", ANTICHAIN4, HUGE_PAIR, ["--split", "g1,g2"]),
    ("oracle", ANTICHAIN4, HUGE_PAIR, ["--split", "g1,g2", "--dims", "1"]),
    ("spectrum", {"elements": ["g1", "g2"], "relations": []},
     {"weights": {"g1": 1e308, "g2": 1e308}}, []),
    ("spectrum", {"elements": ["g1", "g2", "g3"], "relations": [["g1", "g3"], ["g2", "g3"]]},
     {"weights": {"g1": 0.1, "g2": 0.1, "g3": 1e308}}, []),
], ids=["solve", "oracle", "spectrum-pair", "spectrum-sigma"])
def test_a_total_that_overflows_is_rejected(tmp_path, capsys, command, poset_doc,
                                            weights, extra):
    code, out, err = run(capsys, [
        command, "--poset", write_json(tmp_path, "p.json", poset_doc),
        "--character", write_json(tmp_path, "c.json", weights)] + extra)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "twice that is not a finite float" in err


def test_an_unused_weight_counts_toward_the_total(tmp_path, capsys):
    # a name outside the poset is never read, but its weight is summed
    weights = {"weights": {"g1": 0.3, "g2": 0.3, "g3": 0.6, "g4": 0.6, "x": 1e308}}
    code, out, err = run(capsys, [
        "solve", "--poset", write_json(tmp_path, "p.json", ANTICHAIN4),
        "--character", write_json(tmp_path, "c.json", weights), "--split", "g1,g2"])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "twice that is not a finite float" in err


def test_solve_names_the_bound_past_the_step_limit(tmp_path, capsys):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {
        "weights": {g: 0.50001 for g in ANTICHAIN4["elements"]}})
    code, out, err = run(capsys, ["solve", "--poset", poset,
                                  "--character", character, "--split", "g1,g2"])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error: no termination within 10000 steps from lambda0 = 0.0:")
    assert "lambda_cap = 3.99" in err
    assert err.endswith("so the chain ends within 25001 steps\n")


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


@pytest.mark.parametrize("command, poset_doc, character_doc, message", [
    ("classify", {"relations": []}, None,
     "poset document needs 'elements' and 'relations'"),
    ("spectrum", {"elements": ["g1", "g2"], "relations": []}, {},
     "character document needs 'weights'"),
])
def test_documents_without_their_keys_are_rejected(tmp_path, capsys, command,
                                                   poset_doc, character_doc, message):
    argv = [command, "--poset", write_json(tmp_path, "p.json", poset_doc)]
    if character_doc is not None:
        argv += ["--character", write_json(tmp_path, "c.json", character_doc)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert message in err


def test_every_error_class_is_a_value_error():
    # main maps ValueError to exit 2; any other exception is a traceback
    found = []
    for name in ("poset", "spectrum", "chain", "builder", "verify", "oracle", "cli"):
        module = importlib.import_module("orthoposet." + name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Exception):
                found.append(cls)
                assert issubclass(cls, ValueError), cls
    assert found


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


def test_classify_long_fence(tmp_path, capsys):
    # a_i < b_i and a_(i+1) < b_i: width follows augmenting paths 1,000 steps long
    a, b = ["a%d" % i for i in range(1000)], ["b%d" % i for i in range(1000)]
    rels = [list(pair) for pair in zip(a, b)] + [list(pair) for pair in zip(a[1:], b)]
    poset = write_json(tmp_path, "p.json", {"elements": a[::-1] + b, "relations": rels})
    code, out, _ = run(capsys, ["classify", "--poset", poset])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["class"] == "Wild"
    assert report["width"] == 1000


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
                                   dataclasses.replace(cfg, dimension=d)) is not None
             for d in (1, 2, 3)]
    assert [row["oracle"] for row in json.loads(out)["rows"]] == found == [
        False, False, True]


# floats that json writes in every form: signed zero, subnormal, huge,
# long reprs, and the non-finite ones it spells NaN and Infinity
FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1e16, -1e16, 1.5e-7, 1e-05, 5e-324,
          2.2250738585072014e-308, 1.7976931348623157e308, 1e308, -1e308,
          123456789.12345678, math.nan, math.inf, -math.inf]
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


# another dtype, shape or size: arrays the writer leaves to their tolist()
SPOIL_ARRAY = [
    lambda a: np.clip(a, -1e38, 1e38).astype(np.float32),
    lambda a: np.arange(a.size).reshape(a.shape), lambda a: a != 0.0,
    lambda a: a.astype(complex), lambda a: a[..., 0],
    lambda a: np.concatenate([a, a[..., :1]], axis=-1), lambda a: a[:0],
    lambda a: a[:, :0], lambda a: np.array(a.flat[0])]


def random_array(rng):
    """A float64 (r, c, 2) array, most entries +0.0 and the rest finite,
    at times transposed, and at times spoiled by a NaN or an infinity, or
    by another dtype or shape."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    a = np.array([random_float(rng) if rng.random() < 0.3 else 0.0
                  for _ in range(rows * cols * 2)]).reshape(rows, cols, 2)
    a[~np.isfinite(a)] = 0.5
    if rng.random() < 0.2:
        a = a.transpose(1, 0, 2)
    if rng.random() < 0.2:
        a[rng.randrange(len(a)), 0, rng.randrange(2)] = rng.choice(FLOATS[-3:])
    elif rng.random() < 0.3:
        a = rng.choice(SPOIL_ARRAY)(a)
    return a


def assert_writes_as_json(doc):
    "_dumps(doc)'s pieces join to json.dumps's text for doc, or fail as it does"
    try:
        text = json.dumps(doc, indent=2, default=np.ndarray.tolist)
    except TypeError:
        # a complex array or another object json cannot write
        with pytest.raises(TypeError):
            _dumps(doc)
        return
    pieces = _dumps(doc)
    assert all(isinstance(piece, str) for piece in pieces), doc
    assert "".join(pieces) == text, doc


def random_document(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return random_float(rng) if rng.random() < 0.5 else rng.choice(SCALARS)
    if roll < 0.4:
        return random_matrix(rng)
    if roll < 0.45:
        return random_array(rng)
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
                                     [[0.0, 0.0], [1.0, 0.0]]]}},
             {"projections": {"g1": np.eye(2)[..., None] * [1.0, 0.0]}},
             (np.array(FLOATS[:-3] * 2).reshape(3, -1, 2), {1: np.eye(1)})]
    pairs = np.eye(2)[..., None] * [0.5, -0.25]
    # strings and keys that read as the writer's placeholder for an array
    docs += [[pairs, text] for text in ("\x00", 'a"\x00')]
    docs += [{text: pairs, "m": [pairs]} for text in ("\x00", 'a"\x00')]
    # arrays at depth 0, in a tuple, under keys json turns into strings, and
    # one shape at two depths
    docs += [pairs, np.eye(3), (pairs, [pairs]), {1: pairs, None: pairs, 2.5: [pairs]},
             {"a": pairs, "b": {"c": pairs}, "d": [pairs, np.zeros((2, 2, 2))]}]
    # objects json cannot write, next to an array
    docs += [[pairs, object()], {"m": pairs, "n": np.int64(3)}, np.int64(3)]
    # the writer copies each run of zeros between two other entries in one
    # piece: -0.0 at the first and the last entry, other entries at the ends
    # of rows, one entry, and no entry that is not zero, at depths 0 to 4
    signed = np.zeros((3, 4, 2))
    signed[0, 0, 0] = signed[-1, -1, -1] = -0.0
    ends = np.zeros((3, 4, 2))
    ends[:, 0, 0], ends[:, -1, 1], ends[1, -1, 0] = 0.25, -1.5, 1e-300
    arrays = [signed, ends, np.zeros((1, 1, 2)), np.array([[[-0.0, 0.5]]]),
              np.array([[[0.0, -0.0]]]), np.zeros((4, 3, 2))]
    for doc in arrays:
        for level in range(5):
            docs.append(doc)
            doc = [doc] if level % 2 else {"m": doc}
    docs.append(arrays)
    for doc in docs:
        assert_writes_as_json(doc)


@pytest.mark.parametrize("m, direct", [
    (np.array([[[0.5, -0.0]]]), True),
    (np.arange(12.0).reshape(3, 2, 2).transpose(1, 0, 2), True),  # not contiguous
    (np.array([[[1.0, 2.0], [3.0, math.nan]]]), False),
    (np.array([[[1.0, 2.0], [-math.inf, 0.0]]]), False),
    (np.array([[[1, 2], [3, 4]]]), False),
    (np.zeros((2, 2, 3)), False),
    (np.zeros((2, 0, 2)), False),
    (np.array([[[0.1, 2.0]]], dtype=np.float32), False),
    (np.array([[[True, False]]]), False),
    (np.array([[[1.0, 2.0]]], dtype=complex), False),
    (np.zeros((2, 2)), False),
    (np.zeros((0, 2, 2)), False),
    (np.array(0.5), False),
    (np.array([[[1.0, 2.0], [3.0, math.inf]]]), False),
    (np.array([[[-0.0, 5e-324], [1e-05, 1e16]], [[1e308, -1e308], [0.0, 0.1]]]), True),
])
def test_writer_writes_only_finite_float_matrices_itself(m, direct):
    # the writer writes a finite float64 (r, c, 2) array itself, and any
    # other array as its tolist(); json cannot write a complex one
    assert (_pairs(m, 2, {}) is not None) == direct
    assert_writes_as_json({"m": m})


@pytest.mark.parametrize("weight, extra, dimensions", [
    (0.6, [], [3] * 4), (0.504, [], [63] * 4),
    # the continuous series at a phase off the real line
    (0.5, ["--c", "0.25", "--gamma", "0.6,0.8"], [2] + [1] * 6)],
    ids=["0.6-3", "0.504-63", "0.5-c-gamma"])
def test_solve_prints_json_dumps_of_its_report(tmp_path, capsys, weight, extra,
                                               dimensions):
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: weight for g in ANTICHAIN4["elements"]}})
    argv = ["solve", "--poset", poset, "--character", character, "--split",
            "g1,g2"] + extra
    report, code = cmd_solve(build_parser().parse_args(argv))
    assert [rec["family"]["dimension"] for rec in report["families"]] == dimensions
    out = json.dumps(report, indent=2, default=np.ndarray.tolist) + "\n"
    assert run(capsys, argv) == (code, out, "")
    if extra:
        # a family with nonzero imaginary parts, in both formats
        assert any(m[..., 1].any() for rec in report["families"]
                   for m in rec["family"]["projections"].values())
        text = run(capsys, argv + ["--format", "text"])[1]
        line = "families: %s" % json.dumps(json.loads(out)["families"])
        assert line in text.splitlines()


class CountingSink:
    "a stdout that counts the characters written to it and keeps none"

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def flush(self):
        pass


def test_solve_holds_its_reply_once(tmp_path):
    # quad 1/2 + 1/256: one family of dimension 129, a 5 MB reply. Building,
    # verifying and writing it peaked at 2.52x the reply when the reply was
    # joined into one string and copied again with its newline, and at 1.78x
    # with its pieces written in turn (the same ratios as at dimension 513)
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", {"weights": {
        g: 0.5 + 1.0 / 256 for g in ANTICHAIN4["elements"]}})
    argv = ["solve", "--poset", poset, "--character", character, "--split",
            "g1,g2", "--max-dim", "129"]
    # a first run, untraced, for what the first run of a process loads
    with contextlib.redirect_stdout(CountingSink()):
        main(argv)
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert sink.chars > 4e6
    assert peak < 2 * sink.chars, peak / sink.chars


def test_solve_records_a_chain_the_builder_rejects(tmp_path, capsys, monkeypatch):
    built = cli.build_from_chain

    def second_fails(chain):
        if chain.start_point > 0.0:
            raise BuilderError("rejected for the test")
        return built(chain)

    monkeypatch.setattr(cli, "build_from_chain", second_fails)
    poset = write_json(tmp_path, "p.json", ANTICHAIN4)
    character = write_json(tmp_path, "c.json", ALL_SIX_TENTHS)
    code, out, _ = run(capsys, ["solve", "--poset", poset, "--character",
                                character, "--split", "g1,g2"])
    reply = json.loads(out)
    assert code == EXIT_VERIFICATION
    assert [ch["lambda0"] for ch in reply["chains"]] == [0.0, 0.6]
    *families, record = reply["families"]
    assert [rec["verification"]["passed"] for rec in families] == [True, True]
    assert record == {"chain": reply["chains"][1], "error": "rejected for the test"}
    assert out == json.dumps(reply, indent=2) + "\n"


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
                  "--split", "g1,g2", "--c", "0.25", "--gamma", "0.6,0.8"],
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
