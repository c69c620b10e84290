"""Command-line surface: axiom checks, characterization runs, fairness audits,
and the reproduce-paper scenario bundle.

Exit codes: 0 all expectations met, 1 violation or counterexample found,
2 usage, validation, or enumeration-limit errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .acceptance import run_all
from .errors import SerialQuotaError
from .fairness import (
    GeneratorSpec,
    ef1_audit,
    ef1_quota_feasibility,
    rho_bound,
    rho_mms_audit,
)
from .mechanisms import QuotaOrdering, SerialQuota, canonicalize
from .prefs import additive_class, class_from_tag
from .properties import (
    CONTROL_CLAIM,
    NEUTRAL,
    NON_BOSSY,
    PARETO,
    PARTITION,
    PUSH_UP,
    TRUTHFUL,
    check,
)
from .search import mutate_with_log, verify_characterization
from .serialize import (
    audit_to_json,
    characterization_to_json,
    fraction_to_json,
    mechanism_from_json,
    mechanism_to_json,
    report_to_json,
)

AXIOM_CHECKS = {
    "truthful": TRUTHFUL,
    "nonbossy": NON_BOSSY,
    "neutral": NEUTRAL,
    "partition": PARTITION,
    "pareto": PARETO,
    "control": CONTROL_CLAIM,
    "pushup": PUSH_UP,
}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _quota(args, q: tuple[int, ...]) -> QuotaOrdering:
    """q with --p (default: agents in index order), canonicalized at --m;
    --n, when given, must match the quota length."""
    if args.n is not None and args.n != len(q):
        raise ValueError(f"--n {args.n} does not match quota length {len(q)}")
    p = _ints(args.p) if args.p else tuple(range(len(q)))
    return canonicalize(q, p, args.m)


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def cmd_check(args) -> int:
    mech = mechanism_from_json(json.loads(Path(args.mech).read_text()))
    names = [x.strip() for x in args.axioms.split(",") if x.strip()]
    if not names:
        raise ValueError(f"no axioms given; choose from {sorted(AXIOM_CHECKS)}")
    unknown = [x for x in names if x not in AXIOM_CHECKS]
    if unknown:
        raise ValueError(f"unknown axioms {unknown}; choose from {sorted(AXIOM_CHECKS)}")
    reports = check(mech, [AXIOM_CHECKS[x] for x in names])
    for report in reports:
        status = "pass" if report.holds else "FAIL"
        print(f"{report.property}: {status} ({report.profiles_checked} profiles)")
        if not report.holds:
            print(f"  witness: {json.dumps(report.witness)}")
    _emit(
        {
            "mechanism": mechanism_to_json(mech),
            "reports": [report_to_json(r) for r in reports],
        },
        args,
    )
    return 0 if all(r.holds for r in reports) else 1


def cmd_verify(args) -> int:
    cls = class_from_tag(args.cls, args.m)
    if args.mode == "exhaustive":
        mutation_flags = {
            "--q": args.q, "--p": args.p, "--trials": args.trials, "--seed": args.seed
        }
        ignored = [flag for flag, value in mutation_flags.items() if value is not None]
        if ignored:
            raise ValueError(f"exhaustive mode does not take {', '.join(ignored)}")
        report = verify_characterization(
            args.n, args.m, cls, partition_only=not args.allocations
        )
        print(
            f"verdict: {report.verdict} "
            f"({len(report.satisfying)} satisfying, family {len(report.family)})"
        )
        _emit(characterization_to_json(report), args)
        return 0 if report.verdict == "sets-equal" else 1
    if args.allocations:
        raise ValueError("mutate mode does not take --allocations; it draws partition mutants")
    q = _ints(args.q) if args.q else (1,) * (args.n - 1) + (args.m - args.n + 1,)
    base = _quota(args, q)
    trials = 1000 if args.trials is None else args.trials
    seed = 0 if args.seed is None else args.seed
    report = mutate_with_log(base, cls, trials, seed)[0]
    status = "pass" if report.holds else "FAIL"
    print(
        f"mutation falsification: {status} "
        f"({report.profiles_checked} mutants, base q={base.q} p={base.p})"
    )
    if not report.holds:
        print(f"  surviving mutant: {json.dumps(report.witness)}")
    _emit(report_to_json(report), args)
    return 0 if report.holds else 1


def cmd_fairness(args) -> int:
    quota = _quota(args, _ints(args.q))
    n = quota.n
    mech = SerialQuota(n, args.m, additive_class(args.m), quota)
    families = tuple(x.strip() for x in args.family.split(",") if x.strip())
    spec = GeneratorSpec(n, args.m, families, args.count, args.seed)
    bound = rho_bound(n, args.m) if args.audit == "mms" else None
    audit = (rho_mms_audit if args.audit == "mms" else ef1_audit)(mech, spec)
    if not audit.instances_tested:
        raise ValueError(f"families {','.join(families)} generated no instances")
    if args.audit == "mms":
        ratio = audit.worst_ratio
        print(
            f"worst_ratio: {ratio} ({float(ratio):.6f}) over "
            f"{audit.instances_tested} instances"
        )
        guarantee = (1,) * (n - 1) + (args.m - n + 1,)
        ok = True
        if mech.quota.q == guarantee:
            ok = ratio >= bound
            print(f"floor 1/{bound.denominator}: {'met' if ok else 'BROKEN'}")
        payload = audit_to_json(audit)
        payload["floor"] = fraction_to_json(bound)
        _emit(payload, args)
        return 0 if ok else 1
    feasible = ef1_quota_feasibility(mech.quota.q)
    clean = not audit.ef1_violations
    print(
        f"ef1: {len(audit.ef1_violations)} violations over "
        f"{audit.instances_tested} instances; feasibility predicts "
        f"{'clean' if feasible else 'violations'}"
    )
    if audit.ef1_violations:
        inst, i, j = audit.ef1_violations[0]
        witness = {
            "valuations": [[fraction_to_json(v) for v in row.values] for row in inst.valuations],
            "envious": i,
            "envied": j,
        }
        print(f"  witness: {json.dumps(witness)}")
    payload = audit_to_json(audit)
    payload["feasible"] = feasible
    _emit(payload, args)
    return 0 if clean == feasible else 1


def cmd_reproduce(args) -> int:
    outcomes = run_all()
    for oc in outcomes:
        status = "PASS" if oc.passed else "FAIL"
        print(f"{oc.name} {status} ({oc.seconds:.1f}s) {oc.title}: {oc.detail}")
    ok = all(oc.passed for oc in outcomes)
    print(f"{sum(oc.passed for oc in outcomes)}/{len(outcomes)} criteria passed")
    rows = []
    for oc in outcomes:
        row = {"name": oc.name, "title": oc.title, "passed": oc.passed, "detail": oc.detail}
        if not args.no_timestamp:
            row["seconds"] = round(oc.seconds, 3)
        rows.append(row)
    _emit({"criteria": rows, "all_passed": ok}, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serialquota",
        description="Verify serial-quota allocation mechanisms and their axioms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write a JSON report to this path")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamp and timing fields for byte-identical reports",
        )

    p_check = sub.add_parser("check", help="run axiom checkers on a mechanism file")
    p_check.add_argument("--mech", required=True, help="mechanism descriptor JSON")
    p_check.add_argument(
        "--axioms",
        default="truthful,nonbossy,neutral",
        help="comma list: truthful,nonbossy,neutral,partition,pareto,control,pushup",
    )
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="verify the characterization")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument(
        "--class", dest="cls", default="lex", help="lex or strict_monotone_all"
    )
    p_verify.add_argument("--mode", choices=("exhaustive", "mutate"), required=True)
    p_verify.add_argument(
        "--allocations",
        action="store_true",
        help="exhaustive mode: also allow tables leaving goods unallocated",
    )
    p_verify.add_argument("--trials", type=int, help="mutate mode: mutants to draw (default 1000)")
    p_verify.add_argument("--seed", type=int, help="mutate mode: random seed (default 0)")
    p_verify.add_argument("--q", help="mutation base quotas, e.g. 1,2")
    p_verify.add_argument("--p", help="mutation base picking order, e.g. 0,1")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_fair = sub.add_parser("fairness", help="run a fairness audit")
    p_fair.add_argument("audit", choices=("mms", "ef1"))
    p_fair.add_argument("--q", required=True, help="quota vector, e.g. 1,3")
    p_fair.add_argument("--p", help="picking order (default identity)")
    p_fair.add_argument("--n", type=int, default=None)
    p_fair.add_argument("--m", type=int, required=True)
    p_fair.add_argument(
        "--family",
        default="identical,targeted,random",
        help="instance families to sweep",
    )
    p_fair.add_argument("--count", type=int, default=100, help="random-family size")
    p_fair.add_argument("--seed", type=int, default=0)
    common(p_fair)
    p_fair.set_defaults(func=cmd_fairness)

    p_rep = sub.add_parser(
        "reproduce-paper", help="run every acceptance scenario in sequence"
    )
    common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SerialQuotaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
