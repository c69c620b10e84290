"""JSON round-trips for preferences and mechanisms, and JSON writers for
reports, including the cardinal instances that fairness audits emit.

Rationals are encoded as [numerator, denominator] pairs and accepted back as
ints, "p/q" strings, or such pairs.  Mechanism descriptors carry a "kind"
tag; serial-quota inputs are canonicalized on load, so a non-canonical (q, p)
loads as its unique canonical twin and an overflowing one raises.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Any

from .fairness import FairnessAudit
from .mechanisms import (
    CardinalInstance,
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    Mechanism,
    QuotaOrdering,
    RoundRobin,
    SerialQuota,
    TableMechanism,
    serial_quota,
)
from .prefs import (
    AdditiveStrict,
    Lexicographic,
    Preference,
    PreferenceClass,
    RankTable,
    class_from_tag,
    explicit_class,
)
from .properties import PropertyReport
from .search import CharacterizationReport


def fraction_to_json(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _object(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, key: str, what: str) -> Any:
    """obj[key], or a ValueError naming the field `what` lacks."""
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return obj[key]


def _int(obj: dict, key: str, what: str, default: int | None = None) -> int:
    """The integer field obj[key]; required unless a default is given."""
    x = obj.get(key, default) if default is not None else _field(obj, key, what)
    if not _is_int(x):
        raise ValueError(f"{key!r} must be an integer, got {x!r}")
    return x


def _list(x: Any, field: str) -> list:
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{field!r} must be a list, got {x!r}")
    return x


def _ints(x: Any, field: str) -> tuple[int, ...]:
    if not (isinstance(x, (list, tuple)) and all(map(_is_int, x))):
        raise ValueError(f"{field!r} must be a list of integers, got {x!r}")
    return tuple(x)


def fraction_from_json(x: Any) -> Fraction:
    """An exact rational from an int, a "p/q" or decimal string, or an
    [int, int] pair.  Floats are rejected, since a JSON float is already
    rounded to binary, and so are non-integer pair entries."""
    is_pair = isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_int, x))
    if not (_is_int(x) or isinstance(x, str) or is_pair):
        raise ValueError(f"not a rational: {x!r}")
    try:
        return Fraction(*x) if is_pair else Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None


def preference_to_json(pref: Preference) -> dict:
    if isinstance(pref, Lexicographic):
        return {"kind": "lex", "order": list(pref.order)}
    if isinstance(pref, RankTable):
        return {"kind": "rank", "rank": list(pref.rank)}
    if isinstance(pref, AdditiveStrict):
        return {"kind": "additive", "values": [fraction_to_json(v) for v in pref.values]}
    raise ValueError(f"unknown preference type {type(pref).__name__}")


def preference_from_json(obj: Any) -> Preference:
    kind = _field(_object(obj, "a preference"), "kind", "preference")
    what = f"{kind} preference"
    if kind == "lex":
        return Lexicographic(_ints(_field(obj, "order", what), "order"))
    if kind == "rank":
        return RankTable(_ints(_field(obj, "rank", what), "rank"))
    if kind == "additive":
        values = _list(_field(obj, "values", what), "values")
        return AdditiveStrict(tuple(fraction_from_json(v) for v in values))
    raise ValueError(f"unknown preference kind {kind!r}")


def class_to_json(cls: PreferenceClass) -> dict:
    out: dict[str, Any] = {"tag": cls.tag, "m": cls.m}
    if cls.tag == "explicit":
        out["members"] = [preference_to_json(p) for p in cls.members]
    return out


def class_from_json(obj: Any, m: int | None = None) -> PreferenceClass:
    """A class from its JSON object or tag shorthand.  m, when given, is the
    universe size the enclosing descriptor declares: the shorthand takes it,
    and an object that carries its own m must agree with it."""
    if isinstance(obj, str):
        if m is None:
            raise ValueError("class tag shorthand needs an explicit m")
        return class_from_tag(obj, m)
    if not isinstance(obj, dict):
        raise ValueError(f"'class' must be a tag string or a JSON object, got {obj!r}")
    tag = _field(obj, "tag", "class")
    if "m" in obj:
        own = _int(obj, "m", "class")
        if m is not None and own != m:
            raise ValueError(f"mechanism declares m={m} but its class has m={own}")
        m = own
    if m is None or m < 0:
        raise ValueError("class JSON needs m")
    if tag == "explicit":
        members = _list(_field(obj, "members", "explicit class"), "members")
        return explicit_class(m, tuple(preference_from_json(p) for p in members))
    return class_from_tag(tag, m)


def quota_to_json(qo: QuotaOrdering) -> dict:
    return {"q": list(qo.q), "p": list(qo.p)}


def mechanism_to_json(mech: Mechanism) -> dict:
    cls_json = class_to_json(mech.domain)
    if isinstance(mech, SerialQuota):
        return {
            "kind": "serial_quota",
            "q": list(mech.quota.q),
            "p": list(mech.quota.p),
            "m": mech.m,
            "class": cls_json,
        }
    if isinstance(mech, TableMechanism):
        return {
            "kind": "table",
            "class": cls_json,
            "alloc": [list(row) for row in mech.table],
            "n": mech.n,
        }
    if isinstance(mech, RoundRobin):
        return {"kind": "round_robin", "n": mech.n, "m": mech.m, "class": cls_json}
    if isinstance(mech, CounterNonTruthful):
        return {"kind": "counter_non_truthful", "n": mech.n, "class": cls_json}
    if isinstance(mech, CounterBossy):
        return {"kind": "counter_bossy", "n": mech.n, "m": mech.m, "class": cls_json}
    if isinstance(mech, CounterNonNeutral):
        return {
            "kind": "counter_non_neutral",
            "n": mech.n,
            "m": mech.m,
            "a": mech.a,
            "b": mech.b,
            "class": cls_json,
        }
    raise ValueError(f"unknown mechanism type {type(mech).__name__}")


def mechanism_from_json(obj: Any) -> Mechanism:
    """A mechanism from its descriptor.  A missing field, or a field of the
    wrong JSON type, raises ValueError naming it."""
    kind = _field(_object(obj, "a mechanism descriptor"), "kind", "mechanism descriptor")
    what = f"{kind} descriptor"
    if kind == "serial_quota":
        q = _ints(_field(obj, "q", what), "q")
        p = _ints(_field(obj, "p", what), "p")
        cls_json = obj.get("class", "lex")
        # Without a top-level m, the class's own m, else the quotas' sum.
        own = cls_json.get("m") if isinstance(cls_json, dict) else None
        m = _int(obj, "m", what, sum(q) if own is None else own)
        return serial_quota(q, p, class_from_json(cls_json, m))
    if kind == "table":
        cls = class_from_json(_field(obj, "class", what))
        rows = _list(_field(obj, "alloc", what), "alloc")
        alloc = tuple(_ints(row, f"alloc[{idx}]") for idx, row in enumerate(rows))
        n = _int(obj, "n", what, len(alloc[0]) if alloc else 0)
        _validate_table(alloc, cls, n)
        return TableMechanism(n, cls.m, cls, alloc)
    if kind == "round_robin":
        n, m = _int(obj, "n", what), _int(obj, "m", what)
        return RoundRobin(n, m, class_from_json(obj.get("class", "lex"), m))
    if kind == "counter_non_truthful":
        n = _int(obj, "n", what, 2)
        return CounterNonTruthful(n, 2, class_from_json(obj.get("class", "lex"), 2))
    if kind == "counter_bossy":
        n, m = _int(obj, "n", what, 3), _int(obj, "m", what)
        return CounterBossy(n, m, class_from_json(obj.get("class", "lex"), m))
    if kind == "counter_non_neutral":
        n, m = _int(obj, "n", what, 3), _int(obj, "m", what)
        cls = class_from_json(obj.get("class", "lex"), m)
        return CounterNonNeutral(n, m, cls, _int(obj, "a", what), _int(obj, "b", what))
    raise ValueError(f"unknown mechanism kind {kind!r}")


def _validate_table(alloc, cls: PreferenceClass, n: int) -> None:
    """Every row holds n pairwise disjoint bundles in [0, 2^m); the row count
    is checked by TableMechanism itself."""
    size = 1 << cls.m
    for idx, row in enumerate(alloc):
        if len(row) != n:
            raise ValueError(f"table row {idx} has {len(row)} bundles, expected {n}")
        seen = 0
        for b in row:
            if not 0 <= b < size:
                raise ValueError(f"table row {idx}: bundle {b} outside [0, {size})")
            if seen & b:
                raise ValueError(f"table row {idx}: bundles overlap")
            seen |= b


def instance_to_json(inst: CardinalInstance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "valuations": [
            [fraction_to_json(v) for v in row.values] for row in inst.valuations
        ],
    }


def report_to_json(report: PropertyReport) -> dict:
    return {
        "property": report.property,
        "holds": report.holds,
        "witness": report.witness,
        "profiles_checked": report.profiles_checked,
    }


def audit_to_json(audit: FairnessAudit) -> dict:
    ratio = audit.worst_ratio
    return {
        "mechanism": audit.mechanism,
        "instances_tested": audit.instances_tested,
        "worst_ratio": None if ratio is None else fraction_to_json(ratio),
        "worst_ratio_decimal": None if ratio is None else float(ratio),
        "ef1_violations": [
            {"instance": instance_to_json(inst), "envious": i, "envied": j}
            for inst, i, j in audit.ef1_violations
        ],
    }


def _count_to_json(count: int) -> int | str:
    """count, or its decimal string when CPython refuses to print an int
    that long (over 4,300 digits by default); Decimal has no such limit."""
    try:
        str(count)
    except ValueError:
        return str(Decimal(count))
    return count


def characterization_to_json(report: CharacterizationReport) -> dict:
    out: dict[str, Any] = {
        "n": report.n,
        "m": report.m,
        "class": report.class_tag,
        "partition_only": report.partition_only,
        "tables_enumerated": _count_to_json(report.tables_enumerated),
        "nodes": report.nodes,
        "prunes": report.prunes,
        "satisfying_count": len(report.satisfying),
        "recognized": [quota_to_json(qo) for qo in report.recognized],
        "family": [quota_to_json(qo) for qo in report.family],
        "verdict": report.verdict,
    }
    if report.counterexample is not None:
        out["satisfying_tables"] = [
            [list(row) for row in mech.table] for mech in report.satisfying
        ]
        out["counterexample"] = mechanism_to_json(report.counterexample)
    return out
