"""Command-line front end: classify, spectrum, solve, oracle, verify."""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .builder import (BuilderError, ProjectionFamily, build_from_chain,
                      build_quadruple_continuous)
from .chain import NoRepresentation, predict
from .oracle import SearchConfig, cross_validate_split
from .poset import (NotTame, Poset, classify, decompose,
                    essential_catalog_match, width)
from .spectrum import Character, delta_of
from .verify import check_all

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


def cmd_classify(poset_path):
    p = _load(poset_path, Poset.from_json)
    try:
        blocks = {"blocks": [list(b) for b in decompose(p).blocks]}
    except NotTame:
        blocks = None
    return {"class": classify(p), "width": width(p),
            "decomposition": blocks, "catalog": essential_catalog_match(p)}


def cmd_spectrum(poset_path, character_path, tol):
    p = _load(poset_path, Poset.from_json)
    chi = _load(character_path, Character.from_json)
    return delta_of(p, chi, tol).to_dict()


def _family_record(fam, tol):
    report = check_all(fam, tol)
    return {"family": fam.to_dict(),
            "verification": report.to_dict()}, report.passed


def cmd_solve(poset_path, character_path, split_spec, tol, max_dimension,
              c=None, gamma=None):
    p = _load(poset_path, Poset.from_json)
    chi = _load(character_path, Character.from_json)
    pred = predict(p, chi, split_spec.split(","), tol)
    chi = pred.character
    if (c is not None or gamma is not None) and (c is None or pred.two_point is None):
        raise ValueError("--gamma needs --c, and --c needs two-point mode (here: %s)"
                         % pred.mode)
    report = {"filter": {"forced": [list(f) for f in pred.forced],
                         "total": chi.total},
              "mode": pred.mode}
    verify_tol = min(tol, 1e-10)
    records = [_family_record(ProjectionFamily(
        p, chi, {g: np.eye(1) * b for g, b in zip(p.elements, bits)}), verify_tol)
        for bits in pred.scalar]
    if pred.two_point is not None:
        report["two_point"] = pred.two_point.to_dict()
        if c is not None:
            ctx = pred.context
            records.append(_family_record(build_quadruple_continuous(
                ctx.delta1.pair_weights + ctx.delta2.pair_weights, c,
                gamma or 1.0, tol, parts=(ctx.part1.elements, ctx.part2.elements)),
                verify_tol))
    chains = [ch for ch in pred.chains if ch.dimension <= max_dimension]
    dropped = [ch.dimension for ch in pred.chains if ch.dimension > max_dimension]
    if dropped:
        print("note: --max-dim %d leaves out chains of dimension %s"
              % (max_dimension, ", ".join(map(str, dropped))), file=sys.stderr)
    if pred.mode != "scalar":
        report["chains"] = [ch.to_dict() for ch in chains]
    for ch in chains:
        try:
            built = build_from_chain(ch, tol)
        except BuilderError as exc:
            records.append(({"chain": ch.to_dict(), "error": str(exc)}, False))
            continue
        records += [_family_record(fam, verify_tol) for fam in built]
    report["families"] = [rec for rec, _ in records]
    if not records:
        return report, EXIT_NO_REPRESENTATION
    return report, EXIT_OK if all(ok for _, ok in records) else EXIT_VERIFICATION


def cmd_oracle(poset_path, character_path, split_spec, dims, tol, seed,
               restarts=None, iterations=None):
    p = _load(poset_path, Poset.from_json)
    chi = _load(character_path, Character.from_json)
    given = {"restarts": restarts, "max_iterations": iterations}
    cfg = SearchConfig(dims[0], seed=seed,
                       **{k: v for k, v in given.items() if v is not None})
    return cross_validate_split(p, chi, split_spec.split(","), dims, cfg,
                                tol).to_dict()


def cmd_verify(family_path, poset_path, tol):
    p = _load(poset_path, Poset.from_json)
    fam = _load(family_path, ProjectionFamily.from_json, p)
    report = check_all(fam, min(tol, 1e-10))
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


def _print(report, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, indent=2) + "\n")
        return
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            out.write("%s: %s\n" % (key, json.dumps(value)))
        else:
            out.write("%s: %s\n" % (key, value))


def _add_common(sub):
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--format", choices=("json", "text"), default="json")


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthoposet",
        description="irreducible orthoscalar projection families on posets "
                    "split into two one-parameter parts")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="poset class, width, catalog match")
    sub.add_argument("--poset", required=True)
    _add_common(sub)

    sub = subs.add_parser("spectrum", help="admissible spectrum of a part")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--character", required=True)
    _add_common(sub)

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
    _add_common(sub)

    sub = subs.add_parser("oracle", help="cross-validate chains against search")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--character", required=True)
    sub.add_argument("--split", required=True)
    sub.add_argument("--dims", type=_parse_dims, default=(1, 2, 3, 4))
    sub.add_argument("--restarts", type=int, default=None)
    sub.add_argument("--iterations", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)

    sub = subs.add_parser("verify", help="re-verify an emitted family file")
    sub.add_argument("family")
    sub.add_argument("--poset", required=True)
    _add_common(sub)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    code = EXIT_OK
    try:
        if not 0 < args.tol < math.inf:
            raise ValueError("tolerance must be positive and finite, got %r"
                             % (args.tol,))
        if args.command == "classify":
            report = cmd_classify(args.poset)
        elif args.command == "spectrum":
            report = cmd_spectrum(args.poset, args.character, args.tol)
        elif args.command == "solve":
            report, code = cmd_solve(args.poset, args.character, args.split,
                                     args.tol, args.max_dim, c=args.c,
                                     gamma=args.gamma)
        elif args.command == "oracle":
            report = cmd_oracle(args.poset, args.character, args.split,
                                args.dims, args.tol, args.seed,
                                restarts=args.restarts,
                                iterations=args.iterations)
        else:
            report, code = cmd_verify(args.family, args.poset, args.tol)
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
