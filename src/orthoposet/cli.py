"""Command-line front end: classify, spectrum, solve, oracle, verify."""

import argparse
import functools
import json
import math
import sys
# the escaping json.dumps applies to every str, keys included
from json.encoder import encode_basestring_ascii

import numpy as np

from .builder import (BuilderError, ProjectionFamily, build_from_chain,
                      build_quadruple_continuous)
from .chain import NoRepresentation, predict
from .oracle import SearchConfig, cross_validate_split
from .poset import (NotTame, Poset, classify, decompose,
                    essential_catalog_match, width)
from .spectrum import DEFAULT_TOL, Character, delta_of
from .verify import VERIFY_TOL, check_all

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_REPRESENTATION = 3
EXIT_VERIFICATION = 4


def _load(path, from_json, *args):
    "from_json(text of the file at path, *args); a syntax error names the file"
    with open(path) as fh:
        text = fh.read()
    try:
        return from_json(text, *args)
    except json.JSONDecodeError as exc:
        raise ValueError("%s: parse error at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))


def cmd_classify(args):
    p = _load(args.poset, Poset.from_json)
    try:
        blocks = {"blocks": [list(b) for b in decompose(p).blocks]}
    except NotTame:
        blocks = None
    return {"class": classify(p), "width": width(p),
            "decomposition": blocks, "catalog": essential_catalog_match(p)}, EXIT_OK


def cmd_spectrum(args):
    p = _load(args.poset, Poset.from_json)
    chi = _load(args.character, Character.from_json)
    return delta_of(p, chi, args.tol).to_dict(), EXIT_OK


def _check(fam, tol):
    "check_all at tol, but never looser than the verifier's VERIFY_TOL"
    return check_all(fam, min(tol, VERIFY_TOL))


def _family_record(fam, tol):
    report = _check(fam, tol)
    return {"family": fam.to_dict(),
            "verification": report.to_dict()}, report.passed


def _on_input(fam, p, chi):
    "fam on the poset p with the character chi; P_g = 0 for each g it leaves out"
    if set(fam.projections) == set(p.elements):
        return fam
    zero = np.zeros((fam.dimension, fam.dimension))
    projections = {g: fam.projections.get(g, zero) for g in p.elements}
    return ProjectionFamily(p, chi, projections, fam.split, fam.block_params)


def cmd_solve(args):
    p = _load(args.poset, Poset.from_json)
    chi = _load(args.character, Character.from_json)
    tol, c, gamma = args.tol, args.c, args.gamma
    pred = predict(p, chi, args.split.split(","), tol)
    chi = pred.character
    if (c is not None or gamma is not None) and (c is None or pred.two_point is None):
        raise ValueError("--gamma needs --c, and --c needs two-point mode (here: %s)"
                         % pred.mode)
    report = {"filter": {"forced": [list(f) for f in pred.forced],
                         "total": chi.total},
              "mode": pred.mode}
    records = [_family_record(ProjectionFamily(
        p, chi, {g: np.eye(1) * b for g, b in zip(p.elements, bits)}), tol)
        for bits in pred.scalar]
    if pred.two_point is not None:
        report["two_point"] = pred.two_point.to_dict()
        if c is not None:
            ctx = pred.context
            fam = build_quadruple_continuous(
                ctx.delta1.pair_weights + ctx.delta2.pair_weights, c,
                gamma or 1.0, tol, parts=(ctx.part1.elements, ctx.part2.elements))
            records.append(_family_record(_on_input(fam, p, chi), tol))
    chains = [ch for ch in pred.chains if ch.dimension <= args.max_dim]
    dropped = [ch.dimension for ch in pred.chains if ch.dimension > args.max_dim]
    if pred.mode != "scalar":
        report["chains"] = [ch.to_dict() for ch in chains]
    for ch in chains:
        try:
            built = build_from_chain(ch)
        except BuilderError as exc:
            records.append(({"chain": ch.to_dict(), "error": str(exc)}, False))
            continue
        records += [_family_record(_on_input(fam, p, chi), tol) for fam in built]
    report["families"] = [rec for rec, _ in records]
    if dropped:
        note = "note: --max-dim %d leaves out chains of dimension %s" % (
            args.max_dim, ", ".join(map(str, dropped)))
        if not records:
            note += ("; the cap, not the theory, leaves the reply empty: rerun "
                     "with --max-dim %d to build them" % max(dropped))
        print(note, file=sys.stderr)
    if not records:
        return report, EXIT_NO_REPRESENTATION
    return report, EXIT_OK if all(ok for _, ok in records) else EXIT_VERIFICATION


def cmd_oracle(args):
    p = _load(args.poset, Poset.from_json)
    chi = _load(args.character, Character.from_json)
    cfg = SearchConfig(args.dims[0], restarts=args.restarts,
                       max_iterations=args.iterations, seed=args.seed)
    return cross_validate_split(p, chi, args.split.split(","), args.dims, cfg,
                                args.tol).to_dict(), EXIT_OK


def cmd_verify(args):
    p = _load(args.poset, Poset.from_json)
    report = _check(_load(args.family, ProjectionFamily.from_json, p), args.tol)
    return report.to_dict(), EXIT_OK if report.passed else EXIT_VERIFICATION


def _parse_dims(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        dims = tuple(range(int(lo), int(hi) + 1))
    else:
        dims = tuple(int(x) for x in text.split(","))
    if not dims:
        raise argparse.ArgumentTypeError("%r names no dimension" % (text,))
    return dims


def _parse_gamma(text):
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _pad(level):
    return "\n" + "  " * level


def _matrix(m, level):
    """m as json.dumps(indent=2) writes it `level` deep, if m is a list of
    nonempty rows of [re, im] pairs of finite floats; else None."""
    p1, p2, p3 = _pad(level + 1), _pad(level + 2), _pad(level + 3)
    pair = "[" + p3 + "%r," + p3 + "%r" + p2 + "]"
    rows = []
    for row in m:
        if type(row) is not list or not row:
            return None
        for entry in row:
            if (type(entry) is not list or len(entry) != 2
                    or type(entry[0]) is not float or type(entry[1]) is not float):
                return None
        rows.append("[" + p2 + ("," + p2).join([pair % (x, y) for x, y in row])
                    + p1 + "]")
    text = "[" + p1 + ("," + p1).join(rows) + _pad(level) + "]"
    # a finite float's repr has no "n"; nan and inf are json.dumps's to write
    return None if "n" in text else text


def _write(obj, level, put):
    """put the pieces of json.dumps(obj, indent=2) as it reads `level` deep.

    CPython runs its pure-Python encoder whenever indent is set, and a solve
    reply is almost all matrices of [re, im] floats (a family's
    projections). So lists and dicts with str keys are walked, each such
    matrix is written in one piece, and strings, finite floats, ints, bools
    and None are written as json writes them. json.dumps writes the rest:
    NaN and infinities, empty containers, and containers of other types or
    with other keys.
    """
    if type(obj) is list and obj:
        text = _matrix(obj, level)
        if text is not None:
            put(text)
            return
        put("[")
        for i, value in enumerate(obj):
            put(("," if i else "") + _pad(level + 1))
            _write(value, level + 1, put)
        put(_pad(level) + "]")
    elif type(obj) is dict and obj and all(type(key) is str for key in obj):
        put("{")
        for i, (key, value) in enumerate(obj.items()):
            put(("," if i else "") + _pad(level + 1) + encode_basestring_ascii(key)
                + ": ")
            _write(value, level + 1, put)
        put(_pad(level) + "}")
    elif type(obj) is str:
        put(encode_basestring_ascii(obj))
    elif type(obj) is float and math.isfinite(obj):
        put(float.__repr__(obj))
    elif type(obj) is int:
        put(int.__repr__(obj))
    elif obj is None or type(obj) is bool:
        put("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (list, tuple, dict)) and obj:
        # a line break in json.dumps's text is always structure, never in a string
        put(json.dumps(obj, indent=2).replace("\n", _pad(level)))
    else:
        # a scalar or an empty container reads the same without indent
        put(json.dumps(obj))


def _dumps(obj):
    "json.dumps(obj, indent=2), byte for byte"
    pieces = []
    _write(obj, 0, pieces.append)
    return "".join(pieces)


def _print(report, fmt):
    if fmt == "json":
        sys.stdout.write(_dumps(report) + "\n")
        return
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            value = json.dumps(value)
        sys.stdout.write("%s: %s\n" % (key, value))


def _add_common(sub, run):
    "the flags every subcommand takes, and the cmd_* function it runs"
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.set_defaults(run=run)


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthoposet",
        description="irreducible orthoscalar projection families on posets "
                    "split into two one-parameter parts")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="poset class, width, catalog match")
    sub.add_argument("--poset", required=True)
    _add_common(sub, cmd_classify)

    sub = subs.add_parser("spectrum", help="admissible spectrum of a part")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--character", required=True)
    _add_common(sub, cmd_spectrum)

    sub = subs.add_parser("solve", help="enumerate, build and verify families")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--character", required=True)
    sub.add_argument("--split", required=True,
                     help="comma-separated elements of the first part")
    sub.add_argument("--c", type=float, default=None,
                     help="center offset for the continuous series")
    sub.add_argument("--gamma", type=_parse_gamma, default=None,
                     help="unimodular phase RE,IM for the continuous series")
    sub.add_argument("--max-dim", type=int, default=64)
    _add_common(sub, cmd_solve)

    sub = subs.add_parser("oracle", help="cross-validate chains against search")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--character", required=True)
    sub.add_argument("--split", required=True)
    sub.add_argument("--dims", type=_parse_dims, default=(1, 2, 3, 4))
    sub.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    sub.add_argument("--iterations", type=int, default=SearchConfig.max_iterations)
    sub.add_argument("--seed", type=int, default=SearchConfig.seed)
    _add_common(sub, cmd_oracle)

    sub = subs.add_parser("verify", help="re-verify an emitted family file")
    sub.add_argument("family")
    sub.add_argument("--poset", required=True)
    _add_common(sub, cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not 0 < args.tol < math.inf:
            raise ValueError("tolerance must be positive and finite, got %r"
                             % (args.tol,))
        report, code = args.run(args)
    except NoRepresentation as exc:
        print("no representation: %s" % exc, file=sys.stderr)
        return EXIT_NO_REPRESENTATION
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    _print(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
