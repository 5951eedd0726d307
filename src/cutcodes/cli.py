"""Command-line interface.

Exit codes: 0 success, 1 failed expectation or failed reproduction check,
2 usage errors and requests over budget, 3 malformed input files (including
point sets that break the declared flavor, e.g. an origin row).
Budgets resolve flag > environment > --config file > default, with the
environment keys CUTCODES_PAIR_BUDGET, CUTCODES_WEIGHT_BUDGET,
CUTCODES_POINT_CAP, and config-file lines like ``pair_budget = 1000000``.
Every exit-1 expectation failure writes a JSON witness to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .blocking import blocking_report
from .codes import (
    METHOD_ROUTES,
    Config,
    LinearCode,
    ab_check,
    build_affine_code,
    build_projective_code,
    is_minimal,
    load_generator_matrix,
    require_budgets,
    survey_family,
    weight_distribution,
    write_generator_matrix,
)
from .errors import (
    BudgetExceeded,
    CutcodesError,
    NonCanonicalPoint,
    OriginInSet,
    ParseError,
)
from .field import field_from_order
from .functions import (
    FunctionSpec,
    MonomialBlocks,
    PolyZeroIndicator,
    WeightStaircase,
    load_function_table,
    load_polynomial,
)
from .geometry import PointSet, load_point_set
from .repro import DEFAULT_SEED, run_all

_ENV_KEYS = {
    "pair_budget": "CUTCODES_PAIR_BUDGET",
    "weight_budget": "CUTCODES_WEIGHT_BUDGET",
    "point_cap": "CUTCODES_POINT_CAP",
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or key not in _ENV_KEYS:
            raise UsageError(f"{path}:{lineno}: expected <budget key>=<integer>")
        try:
            values[key] = int(val.strip())
        except ValueError:
            raise UsageError(f"{path}:{lineno}: {key} needs an integer value")
    return values


def _config_from(args) -> Config:
    cfg = Config()
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for attr, env in _ENV_KEYS.items():
        flag = getattr(args, attr, None)
        if flag is not None:
            setattr(cfg, attr, int(flag))
        elif os.environ.get(env):
            try:
                setattr(cfg, attr, int(os.environ[env]))
            except ValueError:
                raise UsageError(f"{env} must be an integer")
        elif attr in file_vals:
            setattr(cfg, attr, file_vals[attr])
    return cfg


def _parse_modulus(text: Optional[str]):
    if not text:
        return None
    return tuple(int(t) for t in text.replace(",", " ").split())


def _parse_alphas(text: Optional[str]):
    if not text:
        return None
    return [int(t) for t in text.replace(",", " ").split()]


def _parse_r_range(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.replace(",", " ").split()]


def _add_source_args(p: argparse.ArgumentParser, with_matrix: bool):
    p.add_argument("--q", type=int, help="field order (prime power)")
    p.add_argument("--modulus", help="extension modulus, constant term first")
    p.add_argument(
        "--family",
        choices=["frk", "staircase", "polyzero"],
        help="built-in function family",
    )
    p.add_argument("--r", type=int, help="monomial block degree")
    p.add_argument("--k", type=int, help="block count / staircase depth")
    p.add_argument("--n", type=int, help="arity for the staircase family")
    p.add_argument("--alphas", help="staircase step values, comma separated")
    p.add_argument("--poly", help="polynomial file for the polyzero family")
    p.add_argument("--table", help="function-table file")
    p.add_argument("--projective", action="store_true", help="projective columns")
    if with_matrix:
        p.add_argument(
            "--matrix",
            "--in",
            dest="matrix",
            help="load a generator-matrix file instead",
        )


def _add_budget_args(p: argparse.ArgumentParser):
    p.add_argument("--pair-budget", dest="pair_budget", type=int)
    p.add_argument("--weight-budget", dest="weight_budget", type=int)
    p.add_argument("--point-cap", dest="point_cap", type=int)
    p.add_argument("--config", help="budget file with key=value lines")


class UsageError(Exception):
    pass


def _resolve_function(args) -> FunctionSpec:
    if args.table:
        f = load_function_table(args.table)
        if args.q is not None and args.q != f.field.q:
            raise UsageError(
                f"--q {args.q} contradicts the table header q={f.field.q}"
            )
        return f
    if args.family == "polyzero":
        if not args.poly:
            raise UsageError("--family polyzero needs --poly FILE")
        return PolyZeroIndicator(load_polynomial(args.poly))
    if args.q is None:
        raise UsageError("need --q with a built-in family")
    field = field_from_order(args.q, _parse_modulus(args.modulus))
    if args.family == "staircase":
        if args.n is None or args.k is None or not args.alphas:
            raise UsageError("--family staircase needs --n, --k and --alphas")
        return WeightStaircase(field, args.n, args.k, _parse_alphas(args.alphas))
    if args.family in (None, "frk"):
        if args.r is None or args.k is None:
            raise UsageError("the block family needs --r and --k")
        return MonomialBlocks(field, args.r, args.k)
    raise UsageError(f"unsupported family {args.family!r}")


def _resolve_code(args, cfg: Config) -> LinearCode:
    if getattr(args, "matrix", None):
        return load_generator_matrix(args.matrix)
    f = _resolve_function(args)
    builder = build_projective_code if args.projective else build_affine_code
    return builder(f, cfg)


def _emit(obj, as_json: bool):
    if as_json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for key, val in obj.items():
            print(f"{key}: {val}")


def cmd_build(args) -> int:
    cfg = _config_from(args)
    code = _resolve_code(args, cfg)
    if args.out:
        write_generator_matrix(args.out, code)
    _emit(
        {
            "length": code.length,
            "dim": code.dim,
            "mode": code.mode,
            "q": code.field.q,
            "out": args.out,
        },
        args.json,
    )
    return 0


def cmd_analyze(args) -> int:
    cfg = _config_from(args)
    code = _resolve_code(args, cfg)
    if args.minimality == "theorem" and code.function is None:
        raise UsageError("--minimality theorem needs a function-built code, not --matrix")
    require_budgets(code, ("weights", *METHOD_ROUTES[args.minimality]), cfg)
    weights = weight_distribution(code, cfg)
    ab = ab_check(code, cfg)
    report = is_minimal(code, args.minimality, cfg)
    out = {
        "length": code.length,
        "dim": code.dim,
        "weights": {str(w): c for w, c in sorted(weights.items())},
        "minimal": report.minimal,
        "method": report.method,
        "ab": {"w_min": ab.w_min, "w_max": ab.w_max, "satisfied": ab.satisfied},
    }
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"[{code.length},{code.dim}] code over GF({code.field.q})")
        if args.weights:
            print(f"weights: {json.dumps(out['weights'], sort_keys=True)}")
        print(f"minimal: {report.minimal} ({report.method})")
        if report.witness:
            print(f"witness: {json.dumps(report.witness, sort_keys=True)}")
        if args.ab or args.expect_ab_fail:
            print(
                f"ratio condition: w_min={ab.w_min} w_max={ab.w_max}"
                f" satisfied={ab.satisfied}"
            )
    if args.expect_minimal and report.minimal is not True:
        print("expectation failed: code is not verified minimal", file=sys.stderr)
        payload = {
            "expectation": "minimal",
            "minimal": report.minimal,
            "method": report.method,
            "witness": report.witness,
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    if args.expect_ab_fail and ab.satisfied is not False:
        print("expectation failed: ratio condition not violated", file=sys.stderr)
        payload = {
            "expectation": "ab_fail",
            "satisfied": ab.satisfied,
            "method": ab.method,
            "w_min": ab.w_min,
            "w_max": ab.w_max,
            "q": code.field.q,
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def cmd_blocking(args) -> int:
    space, pset = load_point_set(args.infile)
    if args.normalize:
        reps = {
            space.encode(space.canonical_representative(space.decode(int(e))))
            for e in pset.encodings()
            if e != 0
        }
        pset = PointSet.from_encodings(space, sorted(reps))
    report = blocking_report(
        pset,
        args.k,
        flavor=args.flavor,
        s=args.s,
        method=args.method,
        check_cutting=args.cutting,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        d = report.to_dict()
        wit = d.pop("witnesses")
        for key, val in d.items():
            print(f"{key}: {val}")
        for key, val in wit.items():
            if val is not None:
                print(f"{key}: {val}")
    return 0


def cmd_survey(args) -> int:
    cfg = _config_from(args)
    r_values = _parse_r_range(args.r)
    if not r_values:
        raise UsageError(f"empty r range {args.r!r}")
    rows = survey_family(
        args.q,
        r_values,
        args.k,
        mode="projective" if args.projective else "affine",
        config=cfg,
        modulus=_parse_modulus(args.modulus),
    )
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        cols = [
            "q",
            "r",
            "k",
            "n",
            "length",
            "dim",
            "zero_count",
            "threshold",
            "threshold_hit",
            "theorem_applies",
            "minimal",
            "minimality_method",
            "ab_satisfied",
            "ab_method",
            "w_min",
            "w_max",
        ]
        print("\t".join(cols))
        for row in rows:
            print("\t".join(str(row[c]) for c in cols))
    return 0


def cmd_repro(args) -> int:
    cfg = _config_from(args)
    results = run_all(cfg, args.seed)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        bad = [{"check": r.name, "detail": r.detail} for r in results if not r.passed]
        print(json.dumps({"failed": bad}, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutcodes",
        description="Minimal linear codes from functions over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a code, optionally export it")
    _add_source_args(p, with_matrix=False)
    _add_budget_args(p)
    p.add_argument("--out", help="write the generator matrix here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="weights, minimality, ratio condition")
    _add_source_args(p, with_matrix=True)
    _add_budget_args(p)
    p.add_argument(
        "--minimality",
        choices=["brute", "weightsum", "both", "theorem"],
        default="both",
    )
    p.add_argument("--weights", action="store_true", help="print the weight distribution")
    p.add_argument("--ab", action="store_true", help="print the weight-ratio line")
    p.add_argument("--expect-minimal", action="store_true")
    p.add_argument("--expect-ab-fail", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("blocking", help="blocking/cutting certificates for a point set")
    p.add_argument("--in", dest="infile", required=True, help="point-set file")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--flavor", choices=["vectorial", "projective"], default="vectorial")
    p.add_argument(
        "--cutting",
        action="store_true",
        help="also run the cutting check (costlier than blocking alone)",
    )
    p.add_argument("--method", choices=["span", "pairwise"], default="span")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="replace points by canonical projective representatives first",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_blocking)

    p = sub.add_parser("survey", help="sweep the block family over a range of r")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus")
    p.add_argument("--r", required=True, help="range A..B or comma list")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--projective", action="store_true")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    _add_budget_args(p)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("repro", help="run the built-in reproduction battery")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_budget_args(p)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OriginInSet, NonCanonicalPoint) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return 2
    except CutcodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
