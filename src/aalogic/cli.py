"""Command-line front end. Each command and each ``check`` kind is a
subcommand that declares only the flags it reads, and a bound below 1 is a
usage error. Every report embeds its bounds and seed, so the same arguments
yield byte-identical output. Exit codes: 0 all-pass, 1 check failure, 2
usage or parse error."""

from __future__ import annotations

import argparse
import json
import sys
from types import MappingProxyType

from .algebra import leibniz, leibniz_bruteforce
from .algebraization import check_bp_conditions, is_lindenbaum
from .corpus import classical_corpus, classical_pair, load_algebra, load_pair, resolve_context, resolve_logic
from .glivenko import find_adjoint_report, glivenko_equivalence, glivenko_sweep, rho_translate
from .institutions import institution_report
from .semantics import consequence
from .syntax import FormulaSyntaxError, parse_formula, print_formula

GLIVENKO_SAMPLES = 2000
INSTITUTION_SAMPLES = 1200
SAMPLING_DEFAULTS = MappingProxyType({"vars": 2, "depth": 2, "gamma_size": 2, "seed": 0})


def _bound(text: str) -> int:
    """Type of the bound flags: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _elements(text: str) -> frozenset[int]:
    """Type of ``--filter``: comma-separated element indices."""
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_gamma(sig, text: str | None):
    if not text:
        return ()
    return tuple(parse_formula(sig, part.strip()) for part in text.split(";") if part.strip())


def _sampling_parents(defaults) -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The parents declaring the bound flags and the sampling flags."""
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--vars", type=_bound, default=defaults["vars"])
    bounds.add_argument("--depth", type=_bound, default=defaults["depth"])
    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("--gamma-size", type=_bound, default=defaults["gamma_size"])
    sample.add_argument("--seed", type=int, default=defaults["seed"])
    return bounds, sample


def build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    bounds, sample = _sampling_parents(SAMPLING_DEFAULTS)
    # glivenko's are None unless given, so --phi can refuse them
    sweep_bounds, sweep_sample = _sampling_parents(dict.fromkeys(SAMPLING_DEFAULTS))
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--algebra", required=True)
    logic_pair = argparse.ArgumentParser(add_help=False)
    logic_pair.add_argument("--logic", default="cpc")
    logic_pair.add_argument("--pair")

    parser = argparse.ArgumentParser(prog="aalogic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("consequence", parents=[json_flag], help="decide gamma |- phi in a logic")
    p.add_argument("--logic", required=True)
    p.add_argument("--gamma", default="")
    p.add_argument("--phi", required=True)
    p.set_defaults(run=cmd_consequence)

    p = sub.add_parser("glivenko", parents=[sweep_bounds, sweep_sample, json_flag],
                       help="translation equivalence, single instance or sweep")
    p.add_argument("--context", default="classical")
    p.add_argument("--gamma", default="")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--phi")
    mode.add_argument("--exhaustive", action="store_true")
    p.set_defaults(run=cmd_glivenko)

    p = sub.add_parser("check", help="run a named check suite")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, suite in (("bp", check_bp_conditions), ("lindenbaum", is_lindenbaum)):
        p = kinds.add_parser(kind, parents=[logic_pair, bounds, json_flag])
        p.set_defaults(run=check_pair, suite=suite)
    kinds.add_parser("institution", parents=[bounds, sample, json_flag]).set_defaults(run=check_institution)
    kinds.add_parser("adjoint", parents=[algebra, json_flag]).set_defaults(run=check_adjoint)
    p = kinds.add_parser("leibniz", parents=[algebra, json_flag])
    p.add_argument("--filter", type=_elements, default=frozenset())
    p.set_defaults(run=check_leibniz)
    return parser


def _emit(args, payload, text: str, passed: bool) -> int:
    """Print the JSON payload under ``--json``, else the text; exit 0 or 1."""
    print(json.dumps(payload, indent=2) if args.json else text)
    return 0 if passed else 1


def cmd_consequence(args) -> int:
    logic = resolve_logic(args.logic)
    gamma = _parse_gamma(logic.signature, args.gamma)
    phi = parse_formula(logic.signature, args.phi)
    verdict = consequence(logic, gamma, phi)
    payload = {
        "logic": logic.name,
        "gamma": [print_formula(g) for g in gamma],
        "phi": print_formula(phi),
        "verdict": verdict,
    }
    return _emit(args, payload, "true" if verdict else "false", True)


def cmd_glivenko(args) -> int:
    if args.exhaustive and args.gamma:
        raise ValueError("argument --gamma: not allowed with argument --exhaustive")
    given = {dest: getattr(args, dest) for dest in SAMPLING_DEFAULTS if getattr(args, dest) is not None}
    if args.phi is not None and given:
        raise ValueError(f"argument --{next(iter(given)).replace('_', '-')}: not allowed with argument --phi")
    ctx = resolve_context(args.context)
    if args.exhaustive:
        sweep = {**SAMPLING_DEFAULTS, **given}
        report = glivenko_sweep(
            ctx, sweep["vars"], sweep["depth"], sweep["gamma_size"], sweep["seed"], samples=GLIVENKO_SAMPLES,
        )
        return _emit(args, report.to_json(), report.to_text(), report.passed)
    sig = ctx.target.signature
    gamma = _parse_gamma(sig, args.gamma)
    phi = parse_formula(sig, args.phi)
    left, right = glivenko_equivalence(ctx, gamma, phi)
    payload = {
        "context": ctx.name,
        "gamma": [print_formula(g) for g in gamma],
        "phi": print_formula(phi),
        "translated_phi": print_formula(rho_translate(ctx, phi)),
        "source_proves_translated": left,
        "target_proves": right,
        "agree": left == right,
    }
    text = (f"{ctx.source.name} proves translated: {str(left).lower()}; "
            f"{ctx.target.name} proves: {str(right).lower()}; "
            f"agree: {str(left == right).lower()}")
    return _emit(args, payload, text, left == right)


def check_pair(args) -> int:
    """``check bp`` and ``check lindenbaum``: ``args.suite`` on a logic and its pair."""
    logic = resolve_logic(args.logic)
    pair = load_pair(args.pair, logic.signature) if args.pair else classical_pair()
    report = args.suite(logic, pair, args.vars, args.depth)
    return _emit(args, report.to_json(), report.to_text(), report.passed)


def check_institution(args) -> int:
    corpus = classical_corpus()
    reports = [
        institution_report(kind, corpus, samples=INSTITUTION_SAMPLES, seed=args.seed,
                           num_vars=args.vars, depth=args.depth, gamma_size=args.gamma_size)
        for kind in ("If", "InsAL", "InsLAL")
    ]
    return _emit(args, [r.to_json() for r in reports], "\n".join(r.to_text() for r in reports),
                 all(r.passed for r in reports))


def check_adjoint(args) -> int:
    report = find_adjoint_report(load_algebra(args.algebra))
    return _emit(args, report.to_json(), report.to_text(), report.passed)


def check_leibniz(args) -> int:
    A = load_algebra(args.algebra)
    F = args.filter
    theta = leibniz(A, F)
    oracle = leibniz_bruteforce(A, F)
    payload = {
        "algebra_size": A.size,
        "filter": sorted(F),
        "leibniz_blocks": theta.blocks(),
        "oracle_blocks": oracle.blocks(),
        "is_identity": theta.is_identity(),
        "oracle_agrees": theta == oracle,
    }
    blocks = "|".join(",".join(map(str, b)) for b in theta.blocks())
    text = (f"leibniz congruence: {blocks}\n"
            f"identity: {str(theta.is_identity()).lower()}; oracle agrees: {str(theta == oracle).lower()}")
    return _emit(args, payload, text, theta == oracle)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FormulaSyntaxError, ValueError, OSError, KeyError, RuntimeError) as exc:
        # RuntimeError covers RecursionError from a search too deep to finish
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
