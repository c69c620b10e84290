"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Layers are the package's modules.  `cli` and `acceptance` only orchestrate
(the workloads call the same library functions the CLI commands call) and
`errors` does no work, so none of them is a layer here.  Hot helpers such as
`prefs.demand` or `prefs.compare` are not wrapped: the per-call cost would
swamp the functions they serve.
"""

from __future__ import annotations

from serialquota import engine

# (module, attribute, span name).  A function imported into another module
# is a second binding, so `mechanisms.apply` is wrapped where `properties`
# and `mechanisms` look it up, and `cardinal_apply` where `fairness` does.
WRAPPED = (
    ("engine", "allocation_table", "engine.allocation_table"),
    ("engine", "truthful_violation", "engine.truthful_violation"),
    ("engine", "nonbossy_violation", "engine.nonbossy_violation"),
    ("engine", "neutrality_violation", "engine.neutrality_violation"),
    ("engine", "pareto_violation", "engine.pareto_violation"),
    ("engine", "control_violation", "engine.control_violation"),
    ("search", "verify_characterization", "search.verify_characterization"),
    ("search", "mutate_with_log", "search.mutate_with_log"),
    ("search", "recognize_serial_quota", "search.recognize_serial_quota"),
    ("properties", "check_truthful", "properties.check_truthful"),
    ("properties", "check_non_bossy", "properties.check_non_bossy"),
    ("properties", "check_neutral", "properties.check_neutral"),
    ("properties", "check_partition", "properties.check_partition"),
    ("properties", "check_pareto_efficient", "properties.check_pareto_efficient"),
    ("properties", "check_control_claim", "properties.check_control_claim"),
    ("properties", "check_push_up_invariance", "properties.check_push_up_invariance"),
    ("properties", "replay_witness", "properties.replay_witness"),
    ("properties", "apply", "mechanisms.apply"),
    ("mechanisms", "apply", "mechanisms.apply"),
    ("mechanisms", "cardinal_apply", "mechanisms.cardinal_apply"),
    ("fairness", "cardinal_apply", "mechanisms.cardinal_apply"),
    ("fairness", "mms", "fairness.mms"),
    ("fairness", "check_ef1", "fairness.check_ef1"),
    ("fairness", "generate_instances", "fairness.generate_instances"),
    ("fairness", "rho_floor_sweep", "fairness.rho_floor_sweep"),
    ("fairness", "ef1_random_sweep", "fairness.ef1_random_sweep"),
    ("fairness", "rho_mms_audit", "fairness.rho_mms_audit"),
    ("fairness", "ef1_audit", "fairness.ef1_audit"),
)

# Functions whose wrapped callees give them a self time.
WITH_CHILDREN = (
    "properties.check_truthful",
    "properties.check_non_bossy",
    "properties.check_neutral",
    "properties.check_partition",
    "properties.check_pareto_efficient",
    "properties.check_control_claim",
    "properties.check_push_up_invariance",
    "properties.replay_witness",
    "search.verify_characterization",
    "search.mutate_with_log",
    "search.recognize_serial_quota",
    "mechanisms.cardinal_apply",
    "fairness.rho_mms_audit",
    "fairness.ef1_audit",
)

KERNELS_PER_TABLE = (
    "engine.truthful_violation",
    "engine.nonbossy_violation",
    "engine.neutrality_violation",
)


def _rows(tracer, args, kwargs, result):
    tracer.add("engine.allocation_table.profiles", result.shape[0])


def _perms(tracer, args, kwargs, result):
    perms = args[3] if len(args) > 3 else kwargs.get("perms")
    if perms is None:
        m = args[1].m
        key = ("default_perms", m)
        if key not in tracer.memo:
            default = getattr(engine, "neutrality_perms", None)
            tracer.memo[key] = len(default(m)) if default else 0
        count = tracer.memo[key]
    else:
        count = len(perms)
    tracer.add("engine.neutrality_violation.perms", count)


def _assignments(tracer, args, kwargs, result):
    table, cls, n = args[0], args[1], args[2]
    tracer.add("engine.pareto_violation.assignments", table.shape[0] * (n + 1) ** cls.m)


def _tables(tracer, args, kwargs, result):
    tracer.add("search.tables", result.tables_enumerated)
    tracer.add("search.verify_characterization.tables", result.tables_enumerated)
    tracer.add("search.verify_characterization.satisfying", len(result.satisfying))


def _mutants(tracer, args, kwargs, result):
    tracer.add("search.tables", result[0].profiles_checked)
    tracer.add("search.mutate_with_log.mutants", result[0].profiles_checked)


def _pairs(tracer, args, kwargs, result):
    tracer.add("properties.check_push_up_invariance.pairs", result.profiles_checked)


def _confirmed(tracer, args, kwargs, result):
    tracer.add("properties.replay_witness.confirmed", bool(result))


def _partitions(tracer, args, kwargs, result):
    valuation = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    m = valuation.m if hasattr(valuation, "m") else len(valuation)
    tracer.add("fairness.mms.partitions", n**m)


COUNTERS = {
    "engine.allocation_table": _rows,
    "engine.neutrality_violation": _perms,
    "engine.pareto_violation": _assignments,
    "search.verify_characterization": _tables,
    "search.mutate_with_log": _mutants,
    "properties.check_push_up_invariance": _pairs,
    "properties.replay_witness": _confirmed,
    "fairness.mms": _partitions,
}


def install(tracer, sq) -> None:
    for module, attr, name in WRAPPED:
        tracer.wrap(getattr(sq, module), attr, name, COUNTERS.get(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(summary: dict, counts: dict, setup_summary: dict, wall_s: float, top_busy_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    names = []
    for _, _, name in WRAPPED:
        if name not in names:
            names.append(name)
    for name in names:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
        out[f"{name}.busy_s"] = (stat(name, "busy_s"), "s")
    for name in WITH_CHILDREN:
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")

    tables = counts.get("search.tables", 0)
    for name in KERNELS_PER_TABLE:
        out[f"{name}.calls_per_table"] = (_ratio(stat(name, "calls"), tables), "ratio")
    out["engine.allocation_table.profiles_per_s"] = (
        _ratio(counts.get("engine.allocation_table.profiles", 0), stat("engine.allocation_table", "busy_s")),
        "1/s",
    )
    out["engine.neutrality_violation.perms"] = (counts.get("engine.neutrality_violation.perms", 0), "count")
    out["engine.pareto_violation.assignments"] = (counts.get("engine.pareto_violation.assignments", 0), "count")
    vc = "search.verify_characterization"
    out[f"{vc}.tables_per_s"] = (_ratio(counts.get(f"{vc}.tables", 0), stat(vc, "busy_s")), "1/s")
    out[f"{vc}.survivor_ratio"] = (
        _ratio(counts.get(f"{vc}.satisfying", 0), counts.get(f"{vc}.tables", 0)),
        "ratio",
    )
    mw = "search.mutate_with_log"
    out[f"{mw}.mutants_per_s"] = (_ratio(counts.get(f"{mw}.mutants", 0), stat(mw, "busy_s")), "1/s")
    pu = "properties.check_push_up_invariance"
    out[f"{pu}.pairs_per_s"] = (_ratio(counts.get(f"{pu}.pairs", 0), stat(pu, "busy_s")), "1/s")
    rw = "properties.replay_witness"
    out[f"{rw}.confirmed_ratio"] = (_ratio(counts.get(f"{rw}.confirmed", 0), stat(rw, "calls")), "ratio")
    out["fairness.mms.partitions_per_s"] = (
        _ratio(counts.get("fairness.mms.partitions", 0), stat("fairness.mms", "busy_s")),
        "1/s",
    )
    out["serialize.calls"] = (stat("serialize", "calls"), "count")
    out["serialize.busy_s"] = (stat("serialize", "busy_s"), "s")
    out["bench.verdict.self_s"] = (stat("bench.verdict", "self_s"), "s")
    out["engine.tables.build_s"] = (setup_summary.get("engine.tables", {}).get("busy_s", 0.0), "s")
    out["prefs.classes.build_s"] = (setup_summary.get("prefs.classes", {}).get("busy_s", 0.0), "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.top_level_busy_s"] = (top_busy_s, "s")
    return out
