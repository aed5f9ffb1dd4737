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
from .poset import Poset, decompose, essential_catalog_match, width
from .spectrum import DEFAULT_TOL, Character, delta_of
from .verify import VERIFY_TOL, check_all

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_REPRESENTATION = 3
EXIT_VERIFICATION = 4


def _load(path, from_dict, *args):
    "from_dict(the UTF-8 JSON document at path, *args); a read error names the file"
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("%s: parse error at line %d column %d: %s"
                             % (path, exc.lineno, exc.colno, exc.msg))
        except UnicodeDecodeError as exc:
            raise ValueError("%s: not UTF-8: %s" % (path, exc))
        except RecursionError:
            raise ValueError("%s: nested too deeply to parse" % path)
    return from_dict(doc, *args)


def cmd_classify(args):
    p = _load(args.poset, Poset.from_dict)
    dec = decompose(p)
    blocks = None if dec.blocks is None else {"blocks": [list(b) for b in dec.blocks]}
    return {"class": dec.kind, "width": width(p),
            "decomposition": blocks, "catalog": essential_catalog_match(p)}, EXIT_OK


def cmd_spectrum(args):
    p = _load(args.poset, Poset.from_dict)
    chi = _load(args.character, Character.from_dict)
    return delta_of(p, chi, args.tol).to_dict(), EXIT_OK


def _check(fam, tol):
    "check_all at tol, but never looser than the verifier's VERIFY_TOL"
    return check_all(fam, min(tol, VERIFY_TOL))


def _family_record(fam, tol):
    report = _check(fam, tol)
    return {"family": fam.to_arrays(),
            "verification": report.to_dict()}, report.passed


def _on_input(fam, p, chi):
    "fam on the poset p with the character chi; P_g = 0 for each g it leaves out"
    if set(fam.projections) == set(p.elements):
        return fam
    zero = np.zeros((fam.dimension, fam.dimension))
    projections = {g: fam.projections.get(g, zero) for g in p.elements}
    return ProjectionFamily(p, chi, projections, fam.split, fam.block_params)


def cmd_solve(args):
    if args.max_dim < 1:
        raise ValueError("--max-dim must be at least 1, got %d" % args.max_dim)
    p = _load(args.poset, Poset.from_dict)
    chi = _load(args.character, Character.from_dict)
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
                1.0 if gamma is None else gamma, tol,
                parts=(ctx.part1.elements, ctx.part2.elements))
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
    # imported here, so that no other command compiles or holds the oracle
    from . import oracle
    p = _load(args.poset, Poset.from_dict)
    chi = _load(args.character, Character.from_dict)
    # a setting left out of argv keeps SearchConfig's default
    given = {key: value for key, value in vars(args).items()
             if key in ("restarts", "max_iterations", "seed")}
    cfg = oracle.SearchConfig(args.dims[0], **given)
    return oracle.cross_validate_split(p, chi, args.split.split(","), args.dims,
                                       cfg, args.tol).to_dict(), EXIT_OK


def cmd_verify(args):
    p = _load(args.poset, Poset.from_dict)
    report = _check(_load(args.family, ProjectionFamily.from_dict, p), args.tol)
    return report.to_dict(), EXIT_OK if report.passed else EXIT_VERIFICATION


def _parse_dims(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            dims = range(int(lo), int(hi) + 1)
        else:
            dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r is neither a range such as 1..4 nor a list such as 1,3" % (text,))
    if not dims:
        raise argparse.ArgumentTypeError("%r names no dimension" % (text,))
    return dims


def _parse_gamma(text):
    try:
        # RE or RE,IM; a third part is a TypeError
        return complex(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            "%r is neither RE nor RE,IM, such as 1 or 0.6,0.8" % (text,))


def _pad(level):
    return "\n" + "  " * level


def _pairs(a, level, layouts):
    """a as json.dumps(a.tolist(), indent=2) writes it `level` deep, if a is
    a float64 array of shape (r, c, 2), r, c >= 1, with finite entries; else
    None. layouts keeps, for each (shape, level) it has met, the text of an
    all-zero array and the offset of each entry in it."""
    if (a.dtype != np.float64 or a.ndim != 3 or a.shape[2] != 2 or not a.size
            or not np.isfinite(a).all()):
        return None
    layout = layouts.get((a.shape, level))
    if layout is None:
        p1, p2, p3 = _pad(level + 1), _pad(level + 2), _pad(level + 3)
        pair = "[" + p3 + "0.0," + p3 + "0.0" + p2 + "]"
        row = "[" + p2 + ("," + p2).join([pair] * a.shape[1]) + p1 + "]"
        text = "[" + p1 + ("," + p1).join([row] * a.shape[0]) + _pad(level) + "]"
        # the only "." of a row are those of its words "0.0", one an entry,
        # and row i starts at 1 + len(p1) + i (len(row) + 1 + len(p1))
        dots = np.flatnonzero(np.frombuffer(row.encode(), np.uint8) == ord(".")) - 1
        rows = (1 + len(p1)) + (len(row) + 1 + len(p1)) * np.arange(a.shape[0])
        layout = text, (rows[:, None] + dots).ravel()
        layouts[a.shape, level] = layout
    text, starts = layout
    # most entries of a projection are +0.0, which json writes as 0.0: each
    # other entry's word is spliced in, and the zeros between two of them
    # are copied as one slice of the all-zero text
    flat = a.ravel()
    nonzero = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    pieces, end = [], 0
    for start, x in zip(starts[nonzero].tolist(), flat[nonzero].tolist()):
        pieces += (text[end:start], float.__repr__(x))
        end = start + 3
    pieces.append(text[end:])
    return "".join(pieces)


def _dumps(obj):
    """json.dumps(obj, indent=2, default=np.ndarray.tolist), byte for byte,
    as the list of its pieces: joined, they are that text.

    CPython runs its pure-Python encoder whenever indent is set, and a solve
    reply is almost all arrays of [re, im] floats (a family's projections).
    So json writes the reply with a placeholder string for each array, and
    each array is written in one piece at its placeholder's depth. The
    pieces are not joined, so a reply is held once, not again as one string.
    """
    arrays = []

    def stash(value):
        if not isinstance(value, np.ndarray):
            # raises the TypeError that default=np.ndarray.tolist raises
            return np.ndarray.tolist(value)
        arrays.append(value)
        return "\x00"

    parts = json.dumps(obj, indent=2, default=stash).split('"\\u0000"')
    if len(parts) != len(arrays) + 1:
        # a string or a key of obj reads as the placeholder too
        return [json.dumps(obj, indent=2, default=np.ndarray.tolist)]
    layouts, pieces = {}, [parts[0]]
    for a, part in zip(arrays, parts[1:]):
        # a line break in json's text is always structure, never in a string
        line = pieces[-1].rpartition("\n")[2]
        level = (len(line) - len(line.lstrip(" "))) // 2
        text = _pairs(a, level, layouts)
        if text is None:
            text = json.dumps(a.tolist(), indent=2, default=np.ndarray.tolist
                              ).replace("\n", _pad(level))
        pieces += [text, part]
    return pieces


def _print(report, fmt):
    if fmt == "json":
        # the whole reply is made before any of it is written, so a reply
        # json cannot write prints nothing; the newline goes on the last
        # piece, json's closing text, so a reply with no array is one write
        pieces = _dumps(report)
        pieces[-1] += "\n"
        sys.stdout.writelines(pieces)
        return
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            value = json.dumps(value, default=np.ndarray.tolist)
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
    # absent unless given: SearchConfig holds the defaults
    sub.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--iterations", type=int, dest="max_iterations",
                     metavar="ITERATIONS", default=argparse.SUPPRESS)
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
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
