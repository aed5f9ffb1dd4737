"""Seeded input generators and reply checks for the four benchmark workloads.

Pure stdlib: nothing here imports orthoposet, so generating a workload costs
the same whatever the program does. A workload is a list of requests, one
pass; the harness replays that pass. Each request carries the CLI argv, the
JSON files it reads and the reply the generator expects. The expectations
come from closed forms and from the frozen numbers of the acceptance suite,
never from running the program.
"""

import json
import os
import random

# Criterion-4 recipes: (label, shape, ladder index m, a5 or g6 weight as a
# function of eps, chain dimension, number of families). eps is the small
# offset of the pair weights from 1/2.
RECIPES = [
    ("pair-end", "a2", 1, lambda e: 1.0 / 3 - 2 * e, 4, 1),
    ("balanced", "a2", 1, lambda e: 1.0 / 6 - 7 * e / 3, 4, 2),
    ("split", "a2", 1, lambda e: 1.0 / 4 - 2 * e - e / 2, 3, 2),
    ("top-end", "a2", 1, lambda e: 1.0 / 2 - 2 * e, 3, 1),
    ("two-sided", "a4", 1, lambda e: 1.0 / 2 - 2.5 * e, 3, 1),
    ("pair-end", "a2", 2, lambda e: 1.0 / 5 - 2 * e, 6, 1),
    ("balanced", "a2", 2, lambda e: 1.0 / 10 - 11 * e / 5, 6, 2),
    ("split", "a2", 2, lambda e: 1.0 / 8 - 2 * e - e / 4, 5, 2),
    ("top-end", "a2", 2, lambda e: 1.0 / 4 - 2 * e, 5, 1),
    ("two-sided", "a4", 2, lambda e: 1.0 / 4 - 2.5 * e, 5, 1),
    ("four-chain", "a6", 1, lambda e: 1.0 / 3 - 7 * e / 3, 4, 1),
]
# The recipes hold (same chain dimension and family count) for every eps
# in [0.004, 0.03]. Every workload uses the criterion-8 value: with eps
# drawn from [0.008, 0.02], one recipe's solve time swung up to 3x between
# seeds, and the oracle's searches before the first hit swung 2-4x.
EPS = 0.0131

ORACLE_ITERATIONS = 2000
CONFIRM_RESTARTS = 4   # the criterion-8 settings
REFUTE_RESTARTS = 2    # lowered from 4: a refute request runs every lane
# The searches before the first hit swing 2-4x with the search seed, and
# a refute request's time swings 25% with it; a search's time also moves
# with the weights. The oracle workloads therefore hold the search seed at
# the criterion-8 value and every weight fixed, and draw only the names.
SEARCH_SEED = 0
# (a, b) of the zero-step quadruples a, 1 - a, b, 1 - b. They are generic:
# no small integer combination of a and b is whole, so dimension d has only
# the d + 1 rank profiles with equal ranks in each pair. (0.3, 0.65) has 25
# at d = 6, and its refute request took 8x as long.
ZERO_CAP_WEIGHTS = ((0.3719, 0.6143), (0.7268, 0.4537))


class Namer:
    """Fresh element names for one input, drawn from the seed.

    A name is its index in the input followed by seeded letters, so names
    sort in the order they are made, whatever the seed. The program's work
    depends on that order: with names that sorted at random, one recipe's
    solve time swung 2x between seeds.
    """

    def __init__(self, rng):
        self.rng = rng
        self.made = 0

    def __call__(self, count):
        out = []
        for _ in range(count):
            out.append("g%02d%s" % (self.made, "".join(
                self.rng.choice("abcdefghkmnpqrstuvwxyz") for _ in range(3))))
            self.made += 1
        return out


def request(label, command, elements, relations, weights, split, extra,
            expect):
    """One CLI request; file paths are filled in by write_inputs."""
    order = list(elements)
    return {"label": label, "command": command,
            "poset": {"elements": order,
                      "relations": [list(r) for r in relations]},
            "character": {"weights": {g: weights[g] for g in order}},
            "split": ",".join(split), "extra": list(extra), "expect": expect}


def ladder_chain_dims(k):
    """Chain dimensions of four equal weights 1/2 + 1/k, k even.

    The step constant of the chain recurrence is 4/k. For k = 0 (mod 4)
    there is one chain, of dimension k/2 + 1. Otherwise the chains have
    dimension (k + 2)/4: one for k = 6 (mod 8), two for k = 2 (mod 8).
    """
    if k % 4 == 0:
        return [k // 2 + 1]
    if k % 8 == 6:
        return [(k + 2) // 4]
    return [(k + 2) // 4] * 2


def _quad(weights, names):
    """Four incomparable elements with the given weights, split in pairs.

    The elements keep the order they are made in: the oracle's search path
    depends on it, and with a seeded order its time swung between seeds.
    """
    els = names(4)
    return els, [], dict(zip(els, weights)), els[:2]


def _recipe(names, shape, weight_of_eps):
    """A criterion-4 recipe poset at eps = EPS."""
    eps = EPS
    a = 0.5 + eps
    g1, g2, g5, g3, g4, g6 = names(6)
    rels = [(g1, g5), (g2, g5)]
    w = {g1: a, g2: a, g3: a, g4: a}
    part1 = [g1, g2, g5]
    if shape == "a2":
        w[g5] = weight_of_eps(eps)
        els = [g1, g2, g5, g3, g4]
    elif shape == "a4":
        w[g5] = eps / 2
        w[g6] = weight_of_eps(eps)
        rels += [(g3, g6), (g4, g6)]
        els = [g1, g2, g5, g3, g4, g6]
    else:
        w[g5] = eps / 2
        w[g6] = weight_of_eps(eps)
        rels += [(g5, g6)]
        part1 = [g1, g2, g5, g6]
        els = [g1, g2, g5, g6, g3, g4]
    return els, rels, w, part1


def _tall_part(rng, names, size):
    """One-parameter part: a chain below a pair and a chain above it."""
    below = rng.randint(1, size - 3)
    above = size - 2 - below
    low, pair, high = names(below), names(2), names(above)
    rels = list(zip(low, low[1:])) + list(zip(high, high[1:]))
    rels += [(low[-1], p) for p in pair] + [(p, high[0]) for p in pair]
    w = {g: rng.uniform(0.02, 0.25) for g in low + high}
    w.update({g: rng.uniform(0.3, 0.9) for g in pair})
    sigma = sum(w[g] for g in pair) + 2 * sum(w[g] for g in high)
    return low + pair + high, rels, w, sigma


def solve_ladder(rng):
    """Bare quadruple, four weights 1/2 + 1/k for even k in 4..60."""
    reqs = []
    for k in range(4, 61, 2):
        els, rels, w, first = _quad([0.5 + 1.0 / k] * 4, Namer(rng))
        dims = ladder_chain_dims(k)
        reqs.append(request(
            "k=%d" % k, "solve", els, rels, w, first,
            ["--max-dim", str(max(dims) + 1)],
            {"exit": 0, "chain_dims": dims}))
    return reqs


def solve_tall(rng):
    """Tall two-part posets with generic weights, plus the planted recipes."""
    reqs = []
    for total in (8, 12, 16, 20, 24, 28):
        for _ in range(2):
            while True:
                names = Namer(rng)
                e1, r1, w1, s1 = _tall_part(rng, names, total // 2)
                e2, r2, w2, s2 = _tall_part(rng, names, total // 2)
                # keep clear of the two-point case and of very long chains
                if abs(s1 + s2 - 2.0) >= 0.05:
                    break
            # generic weights: no chain lands on a discrete point, so no
            # family exists and solve answers exit 3
            reqs.append(request(
                "tall n=%d" % total, "solve", e1 + e2, r1 + r2,
                dict(w1, **w2), e1, [], {"exit": 3, "chain_dims": []}))
    for label, shape, m, weight, dim, count in RECIPES:
        els, rels, w, part1 = _recipe(Namer(rng), shape, weight)
        reqs.append(request(
            "%s %s m=%d" % (shape, label, m), "solve", els, rels, w, part1,
            [], {"exit": 0, "chain_dims": [dim], "families": count}))
    return reqs


def _oracle(label, els, rels, w, split, dim, restarts, found):
    extra = ["--dims", str(dim), "--restarts", str(restarts), "--iterations",
             str(ORACLE_ITERATIONS), "--seed", str(SEARCH_SEED)]
    return request(label, "oracle", els, rels, w, split, extra,
                   {"exit": 0, "found": found})


def _zero_cap_quad(rng, a, b):
    """Weights a, 1-a, b, 1-b: the step constant is zero, so irreducible
    families exist in dimensions 1 and 2 only (the two-point case)."""
    names = Namer(rng)
    p1, p2 = names(2), names(2)
    w = {p1[0]: a, p1[1]: 1.0 - a, p2[0]: b, p2[1]: 1.0 - b}
    return p1 + p2, [], w, p1


def oracle_confirm(rng):
    """Oracle at a dimension where theory predicts a family."""
    reqs = []
    for k in (4, 6, 10, 14):
        els, rels, w, first = _quad([0.5 + 1.0 / k] * 4, Namer(rng))
        reqs.append(_oracle("quad k=%d" % k, els, rels, w, first,
                            ladder_chain_dims(k)[0], CONFIRM_RESTARTS, True))
    for label, shape, m, weight, dim, _ in RECIPES:
        if m == 1 and label not in ("pair-end", "balanced"):
            els, rels, w, part1 = _recipe(Namer(rng), shape, weight)
            reqs.append(_oracle("%s %s" % (shape, label), els, rels, w, part1,
                                dim, CONFIRM_RESTARTS, True))
    for a, b in ZERO_CAP_WEIGHTS:
        els, rels, w, part1 = _zero_cap_quad(rng, a, b)
        reqs.append(_oracle("zero-cap d=2", els, rels, w, part1, 2,
                            CONFIRM_RESTARTS, True))
    return reqs


def oracle_refute(rng):
    """Oracle at a dimension with rank profiles but no family."""
    # 0.5 + 1/6 at d = 4: 68 rank profiles, chains only at d = 2
    els, rels, w, first = _quad([0.5 + 1.0 / 6] * 4, Namer(rng))
    reqs = [_oracle("quad k=6", els, rels, w, first, 4, REFUTE_RESTARTS, False)]
    # the a4 two-sided recipe (m = 1) has its chain at d = 3; d = 5 has
    # four rank profiles and no family
    _, shape, _, weight, _, _ = RECIPES[4]
    els, rels, w, part1 = _recipe(Namer(rng), shape, weight)
    reqs.append(_oracle("a4 two-sided d=5", els, rels, w, part1, 5,
                        REFUTE_RESTARTS, False))
    for dim in (3, 4, 5, 6):
        for a, b in ZERO_CAP_WEIGHTS:
            els, rels, w, part1 = _zero_cap_quad(rng, a, b)
            reqs.append(_oracle("zero-cap d=%d" % dim, els, rels, w, part1,
                                dim, REFUTE_RESTARTS, False))
    return reqs


# name -> (generator, requests a run needs at least). The solve workloads
# need 100 so that p90 has ten samples beyond it.
WORKLOADS = {
    "solve-ladder": (solve_ladder, 100),
    "solve-tall": (solve_tall, 100),
    "oracle-confirm": (oracle_confirm, 1),
    "oracle-refute": (oracle_refute, 1),
}


def generate(name, seed):
    """The pass of one workload; the same (name, seed) gives the same pass."""
    return WORKLOADS[name][0](random.Random("%s:%d" % (name, seed)))


def write_inputs(reqs, directory):
    """Write each request's JSON files and return its argv list."""
    argvs = []
    for i, req in enumerate(reqs):
        poset = os.path.join(directory, "poset-%d.json" % i)
        chi = os.path.join(directory, "character-%d.json" % i)
        with open(poset, "w") as fh:
            json.dump(req["poset"], fh)
        with open(chi, "w") as fh:
            json.dump(req["character"], fh)
        argvs.append([req["command"], "--poset", poset, "--character", chi,
                      "--split", req["split"]] + req["extra"])
    return argvs


def check_reply(req, code, out):
    """(ok, verified irreducible families in the reply) for one request."""
    expect = req["expect"]
    if code != expect["exit"] or code in (2, 4):
        return False, 0
    try:
        report = json.loads(out)
    except ValueError:
        return False, 0
    if req["command"] == "oracle":
        rows = report.get("rows", [])
        if len(rows) != 1:
            return False, 0
        row = rows[0]
        ok = (report.get("agree") is True and row["agree"] is True
              and row["oracle"] is expect["found"])
        if expect["found"]:
            ok = ok and row["spectrum_matched"] is True
        return ok, int(row["oracle"])
    families = report.get("families", [])
    for rec in families:
        ver = rec.get("verification")
        if not ver or ver.get("passed") is not True \
                or ver.get("irreducible") is not True:
            return False, 0
    dims = sorted(ch["dimension"] for ch in report.get("chains", []))
    if dims != sorted(expect["chain_dims"]):
        return False, 0
    if "families" in expect and len(families) != expect["families"]:
        return False, 0
    if expect["exit"] == 0 and not families:
        return False, 0
    return True, len(families)
