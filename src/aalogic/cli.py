"""Command-line front end. Every report embeds its bounds and seed; a fixed
RunConfig yields byte-identical output. Exit codes: 0 all-pass, 1 check
failure, 2 usage or parse error."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .algebra import leibniz, leibniz_bruteforce
from .algebraization import check_bp_conditions, is_lindenbaum
from .corpus import classical_corpus, classical_pair, load_algebra, load_pair, resolve_context, resolve_logic
from .glivenko import find_adjoint_report, glivenko_equivalence, glivenko_sweep, rho_translate
from .institutions import institution_report
from .semantics import consequence
from .syntax import FormulaSyntaxError, parse_formula, print_formula

GLIVENKO_SAMPLES = 2000
INSTITUTION_SAMPLES = 1200


@dataclass
class RunConfig:
    vars: int = 2
    depth: int = 2
    gamma_size: int = 2
    seed: int = 0

    def __post_init__(self):
        if min(self.vars, self.depth, self.gamma_size) < 1:
            raise ValueError("all bounds must be >= 1")


def _parse_gamma(sig, text: str | None):
    if not text:
        return ()
    return tuple(parse_formula(sig, part.strip()) for part in text.split(";") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aalogic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("consequence", help="decide gamma |- phi in a logic")
    p.add_argument("--logic", required=True)
    p.add_argument("--gamma", default="")
    p.add_argument("--phi", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("glivenko", help="translation equivalence, single instance or sweep")
    p.add_argument("--context", default="classical")
    p.add_argument("--gamma", default="")
    p.add_argument("--phi")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--gamma-size", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="run a named check suite")
    p.add_argument("kind", choices=["bp", "lindenbaum", "institution", "adjoint", "leibniz"])
    p.add_argument("--logic")
    p.add_argument("--pair")
    p.add_argument("--algebra")
    p.add_argument("--filter", default="")
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--gamma-size", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return parser


def _emit(args, report) -> None:
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())


def cmd_consequence(args) -> int:
    logic = resolve_logic(args.logic)
    gamma = _parse_gamma(logic.signature, args.gamma)
    phi = parse_formula(logic.signature, args.phi)
    verdict = consequence(logic, gamma, phi)
    if args.json:
        print(json.dumps({
            "logic": logic.name,
            "gamma": [print_formula(g) for g in gamma],
            "phi": print_formula(phi),
            "verdict": verdict,
        }, indent=2))
    else:
        print("true" if verdict else "false")
    return 0


def cmd_glivenko(args) -> int:
    ctx = resolve_context(args.context)
    if args.exhaustive:
        config = RunConfig(args.vars, args.depth, args.gamma_size, args.seed)
        report = glivenko_sweep(
            ctx, config.vars, config.depth, config.gamma_size, config.seed,
            samples=GLIVENKO_SAMPLES,
        )
        _emit(args, report)
        return 0 if report.passed else 1
    if not args.phi:
        print("either --phi or --exhaustive is required", file=sys.stderr)
        return 2
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
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{ctx.source.name} proves translated: {str(left).lower()}; "
            f"{ctx.target.name} proves: {str(right).lower()}; "
            f"agree: {str(left == right).lower()}"
        )
    return 0 if left == right else 1


def cmd_check(args) -> int:
    config = RunConfig(args.vars, args.depth, args.gamma_size, args.seed)
    if args.kind in ("bp", "lindenbaum"):
        logic = resolve_logic(args.logic or "cpc")
        pair = load_pair(args.pair, logic.signature) if args.pair else classical_pair()
        check = check_bp_conditions if args.kind == "bp" else is_lindenbaum
        report = check(logic, pair, config.vars, config.depth)
        _emit(args, report)
        return 0 if report.passed else 1

    if args.kind == "institution":
        corpus = classical_corpus()
        reports = [
            institution_report(kind, corpus, samples=INSTITUTION_SAMPLES, seed=config.seed,
                               num_vars=config.vars, depth=config.depth,
                               gamma_size=config.gamma_size)
            for kind in ("If", "InsAL", "InsLAL")
        ]
        if args.json:
            print(json.dumps([r.to_json() for r in reports], indent=2))
        else:
            for r in reports:
                print(r.to_text())
        return 0 if all(r.passed for r in reports) else 1

    if args.kind == "adjoint":
        if not args.algebra:
            print("check adjoint requires --algebra", file=sys.stderr)
            return 2
        A = load_algebra(args.algebra)
        report = find_adjoint_report(A)
        _emit(args, report)
        return 0 if report.passed else 1

    if args.kind == "leibniz":
        if not args.algebra:
            print("check leibniz requires --algebra", file=sys.stderr)
            return 2
        A = load_algebra(args.algebra)
        F = frozenset(int(part) for part in args.filter.split(",") if part.strip() != "")
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
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            blocks = "|".join(",".join(map(str, b)) for b in theta.blocks())
            print(f"leibniz congruence: {blocks}")
            print(f"identity: {str(theta.is_identity()).lower()}; oracle agrees: {str(theta == oracle).lower()}")
        return 0 if theta == oracle else 1

    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "consequence":
            return cmd_consequence(args)
        if args.command == "glivenko":
            return cmd_glivenko(args)
        return cmd_check(args)
    except (FormulaSyntaxError, ValueError, OSError, KeyError, RuntimeError) as exc:
        # RuntimeError covers RecursionError from a search too deep to finish
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
