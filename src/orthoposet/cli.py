"""Command-line front end: classify, spectrum, solve, oracle, verify."""

import argparse
import json
import sys

import numpy as np

from .builder import (BuilderError, ProjectionFamily, build_from_chain,
                      build_quadruple_continuous)
from .chain import (DISCRETE_IN_DELTA2, ChainEngineError, EigenChain,
                    NoRepresentation, enumerate_irreducibles,
                    lambda_zero_case, make_context, run_degeneracy_filter)
from .oracle import OracleError, SearchConfig, cross_validate
from .poset import (NotTame, Poset, PosetError, classify, decompose,
                    essential_catalog_match, split_two_one_parameter, width)
from .spectrum import Character, SpectrumError, delta_of
from .verify import VerifierError, check_all

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_REPRESENTATION = 3
EXIT_VERIFICATION = 4


class RunConfig:

    def __init__(self, tolerance=1e-9, seed=0, fmt="json", max_dimension=8):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self.seed = seed
        self.fmt = fmt
        self.max_dimension = max_dimension


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load_poset(path):
    try:
        return Poset.from_json(_read(path))
    except json.JSONDecodeError as exc:
        raise PosetError("%s: parse error at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))


def _load_character(path):
    try:
        return Character.from_json(_read(path))
    except json.JSONDecodeError as exc:
        raise SpectrumError("%s: parse error at line %d column %d: %s"
                            % (path, exc.lineno, exc.colno, exc.msg))


def cmd_classify(poset_path, config):
    p = _load_poset(poset_path)
    try:
        blocks = {"blocks": [list(b) for b in decompose(p).blocks]}
    except NotTame:
        blocks = None
    return {"class": classify(p), "width": width(p),
            "decomposition": blocks, "catalog": essential_catalog_match(p)}


def cmd_spectrum(poset_path, character_path, config):
    p = _load_poset(poset_path)
    chi = _load_character(character_path)
    return json.loads(delta_of(p, chi, config.tolerance).to_json())


def _split_parts(p, chi, split_spec):
    names = [s for s in split_spec.split(",") if s]
    part1, part2 = split_two_one_parameter(p, names)
    return (part1, chi.restrict(part1.elements),
            part2, chi.restrict(part2.elements))


def _family_record(fam, tol):
    report = check_all(fam, tol)
    return {"family": json.loads(fam.to_json()),
            "verification": json.loads(report.to_json())}, report.passed


def cmd_solve(poset_path, character_path, split_spec, config,
              c=None, gamma=None):
    p = _load_poset(poset_path)
    chi = _load_character(character_path)
    for g in p.elements:
        if g not in chi:
            raise SpectrumError("missing weight for %r" % (g,))
    forced, _ = run_degeneracy_filter(chi, config.tolerance)
    report = {"filter": {"forced": [list(f) for f in forced],
                         "total": chi.total}}
    verify_tol = min(config.tolerance, 1e-10)
    all_passed = True
    if forced and all(v == "I" for _, v in forced):
        # total weight is exactly one: the identity family is the only one
        eye = {g: np.eye(1) for g in p.elements}
        rec, ok = _family_record(ProjectionFamily(p, chi, eye), verify_tol)
        report["mode"] = "scalar"
        report["families"] = [rec]
        return report, EXIT_OK if ok else EXIT_VERIFICATION
    drop = {g for g, _ in forced}  # weight >= 1 pins those projections to 0
    keep = [g for g in p.elements if g not in drop]
    reduced = p.induced(keep)
    part1, chi1, part2, chi2 = _split_parts(
        reduced, chi, ",".join(g for g in split_spec.split(",") if g in keep))
    ctx = make_context(part1, chi1, part2, chi2, config.tolerance)
    families = []
    if abs(ctx.lambda_cap) <= config.tolerance:
        two_point = lambda_zero_case(ctx)
        report["mode"] = "two-point"
        report["two_point"] = json.loads(two_point.to_json())
        chains = [EigenChain([v], [1.0 - v], DISCRETE_IN_DELTA2, v, ctx)
                  for v in two_point.one_dim]
        chains += two_point.two_dim
        if c is not None:
            alphas = ctx.delta1.pair_weights + ctx.delta2.pair_weights
            fam = build_quadruple_continuous(
                alphas, c, gamma or 1.0, config.tolerance,
                parts=(part1.elements, part2.elements))
            rec, ok = _family_record(fam, verify_tol)
            all_passed = all_passed and ok
            families.append(rec)
    else:
        report["mode"] = "chains"
        chains = [ch for ch in enumerate_irreducibles(ctx)
                  if ch.dimension <= config.max_dimension]
    report["chains"] = [json.loads(ch.to_json()) for ch in chains]
    for ch in chains:
        try:
            built = build_from_chain(ch, config.tolerance)
        except BuilderError as exc:
            families.append({"chain": json.loads(ch.to_json()),
                             "error": str(exc)})
            all_passed = False
            continue
        for fam in built:
            rec, ok = _family_record(fam, verify_tol)
            all_passed = all_passed and ok
            families.append(rec)
    report["families"] = families
    if not families:
        return report, EXIT_NO_REPRESENTATION
    return report, EXIT_OK if all_passed else EXIT_VERIFICATION


def cmd_oracle(poset_path, character_path, split_spec, dims, config,
               restarts=None, iterations=None):
    p = _load_poset(poset_path)
    chi = _load_character(character_path)
    part1, chi1, part2, chi2 = _split_parts(p, chi, split_spec)
    cfg = SearchConfig(dimension=dims[0], seed=config.seed)
    if restarts is not None:
        cfg = cfg.replace(restarts=restarts)
    if iterations is not None:
        cfg = cfg.replace(max_iterations=iterations)
    cv = cross_validate(part1, chi1, part2, chi2, dims, cfg,
                        tol=config.tolerance)
    return json.loads(cv.to_json())


def cmd_verify(family_path, poset_path, config):
    p = _load_poset(poset_path)
    fam = ProjectionFamily.from_json(_read(family_path), p)
    report = check_all(fam, min(config.tolerance, 1e-10))
    return json.loads(report.to_json()), (EXIT_OK if report.passed
                                          else EXIT_VERIFICATION)


def _parse_dims(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in text.split(","))


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
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--max-dim", type=int, default=8)


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
    _add_common(sub)

    sub = subs.add_parser("oracle", help="cross-validate chains against search")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--character", required=True)
    sub.add_argument("--split", required=True)
    sub.add_argument("--dims", type=_parse_dims, default=(1, 2, 3, 4))
    sub.add_argument("--restarts", type=int, default=None)
    sub.add_argument("--iterations", type=int, default=None)
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
        config = RunConfig(tolerance=args.tol, seed=args.seed, fmt=args.format,
                           max_dimension=args.max_dim)
        if args.command == "classify":
            report = cmd_classify(args.poset, config)
        elif args.command == "spectrum":
            report = cmd_spectrum(args.poset, args.character, config)
        elif args.command == "solve":
            report, code = cmd_solve(args.poset, args.character, args.split,
                                     config, c=args.c, gamma=args.gamma)
        elif args.command == "oracle":
            report = cmd_oracle(args.poset, args.character, args.split,
                                args.dims, config, restarts=args.restarts,
                                iterations=args.iterations)
        else:
            report, code = cmd_verify(args.family, args.poset, config)
    except NoRepresentation as exc:
        print("no representation: %s" % exc, file=sys.stderr)
        return EXIT_NO_REPRESENTATION
    except (PosetError, SpectrumError, ChainEngineError, BuilderError,
            VerifierError, OracleError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    _print(report, config.fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
