"""JSON round-trips for preferences, mechanisms, instances, and reports."""

import dataclasses
import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from serialquota import (
    AdditiveStrict,
    CardinalInstance,
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    GeneratorSpec,
    Lexicographic,
    QuotaOrdering,
    RankTable,
    RoundRobin,
    additive_class,
    check,
    ef1_audit,
    explicit_class,
    lex_class,
    rho_mms_audit,
    serial_quota,
    verify_characterization,
)
from serialquota.mechanisms import SerialQuota, TableMechanism
from serialquota.properties import TRUTHFUL
from serialquota.serialize import (
    audit_to_json,
    characterization_to_json,
    class_from_json,
    class_to_json,
    fraction_from_json,
    fraction_to_json,
    instance_to_json,
    mechanism_from_json,
    mechanism_to_json,
    preference_from_json,
    preference_to_json,
    report_to_json,
)


def through_json(payload):
    return json.loads(json.dumps(payload))


def test_fraction_forms():
    assert fraction_from_json(3) == 3
    assert fraction_from_json("7/2") == Fraction(7, 2)
    assert fraction_from_json([3, 4]) == Fraction(3, 4)
    assert fraction_from_json(fraction_to_json(Fraction(-3, 7))) == Fraction(-3, 7)
    with pytest.raises(ValueError):
        fraction_from_json(True)
    with pytest.raises(ValueError):
        fraction_from_json({"num": 1})


def test_fraction_rejects_json_floats():
    # 0.1 has no exact binary form; it used to load as 3602879701896397/2^55.
    with pytest.raises(ValueError):
        fraction_from_json(0.1)


@pytest.mark.parametrize("pair", [[0.5, 1], [1, 2.0], [True, 2], ["1", 2], [1, 0], "1/0"])
def test_fraction_rejects_inexact_or_undefined_pairs(pair):
    # [0.5, 1] used to be truncated by int() to 0, and a zero denominator
    # escaped as ZeroDivisionError.
    with pytest.raises(ValueError):
        fraction_from_json(pair)


@pytest.mark.parametrize(
    "pref",
    [
        Lexicographic((2, 0, 1)),
        RankTable((0, 2, 1, 3)),
        AdditiveStrict((Fraction(11), Fraction(1001, 100), Fraction(10))),
    ],
)
def test_preference_round_trip(pref):
    assert preference_from_json(through_json(preference_to_json(pref))) == pref


def test_preference_rejects_unknown_kind():
    with pytest.raises(ValueError):
        preference_from_json({"kind": "responsive", "order": [0]})


def test_class_round_trip():
    for cls in (lex_class(3), additive_class(4)):
        assert class_from_json(through_json(class_to_json(cls))) == cls
    explicit = class_to_json(explicit_class(2, tuple(lex_class(2).members)))
    assert class_from_json(through_json(explicit)).members == lex_class(2).members


def test_class_shorthand_needs_m():
    assert class_from_json("lex", 3) == lex_class(3)
    with pytest.raises(ValueError):
        class_from_json("lex")


MECHS = [
    serial_quota((1, 2), (0, 1), lex_class(3)),
    RoundRobin(2, 3, lex_class(3)),
    CounterNonTruthful(2, 2, lex_class(2)),
    CounterBossy(3, 3, lex_class(3)),
    CounterNonNeutral(3, 3, lex_class(3), a=2, b=0),
]


@pytest.mark.parametrize("mech", MECHS, ids=lambda m: type(m).__name__)
def test_mechanism_round_trip(mech):
    assert mechanism_from_json(through_json(mechanism_to_json(mech))) == mech


def test_table_mechanism_round_trip():
    cls = lex_class(2)
    rows = tuple((1, 2) for _ in range(4))
    mech = TableMechanism(2, 2, cls, rows)
    back = mechanism_from_json(through_json(mechanism_to_json(mech)))
    assert isinstance(back, TableMechanism)
    assert back.table == rows


def test_mechanism_defaults():
    # m defaults to sum(q), class defaults to lexicographic, raw pair canonicalized
    mech = mechanism_from_json({"kind": "serial_quota", "q": [0, 2], "p": [0, 1]})
    assert isinstance(mech, SerialQuota)
    assert mech.m == 2
    assert mech.domain == lex_class(2)
    assert mech.quota == QuotaOrdering((2, 0), (1, 0))


def test_serial_quota_without_m_takes_its_class_m():
    # Two quotas over a three-good class leave one good unallocated.
    mech = mechanism_from_json(
        {"kind": "serial_quota", "q": [1, 1], "p": [0, 1], "class": {"tag": "lex", "m": 3}}
    )
    assert mech.m == 3
    assert mech.domain == lex_class(3)


@pytest.mark.parametrize("payload,declared,own", [
    ({"kind": "serial_quota", "q": [1, 1], "p": [0, 1], "m": 3,
      "class": {"tag": "lex", "m": 2}}, 3, 2),
    ({"kind": "counter_bossy", "m": 3, "class": {"tag": "lex", "m": 4}}, 3, 4),
    ({"kind": "counter_non_truthful", "class": {"tag": "lex", "m": 3}}, 2, 3),
], ids=["serial_quota", "counter_bossy", "counter_non_truthful"])
def test_mechanism_rejects_a_class_whose_m_disagrees(payload, declared, own):
    with pytest.raises(ValueError) as exc:
        mechanism_from_json(payload)
    assert str(exc.value) == f"mechanism declares m={declared} but its class has m={own}"


def test_mechanism_rejects_unknown_kind():
    with pytest.raises(ValueError):
        mechanism_from_json({"kind": "dictatorship", "q": [2]})


def test_instance_rejects_too_many_goods_before_building_subset_sums():
    # 2^19 subset sums would take about a second to build.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="16-good cap"):
        preference_from_json({"kind": "additive", "values": [2**g for g in range(19)]})
    assert time.perf_counter() - start < 0.5


def test_additive_preference_rejects_values_past_the_int64_guard():
    with pytest.raises(ValueError, match="2\\^62"):
        preference_from_json({"kind": "additive", "values": [[4611686018427387904, 1]]})
    below = preference_from_json({"kind": "additive", "values": [[4611686018427387903, 1]]})
    assert below.row == (4611686018427387903,)


def test_instance_json_is_unchanged_by_integer_storage():
    inst = CardinalInstance.from_values(
        ((Fraction(11), Fraction(1001, 100), Fraction(10)), (Fraction(1, 3), 2, Fraction(5, 6)))
    )
    assert instance_to_json(inst)["valuations"] == [
        [[11, 1], [1001, 100], [10, 1]],
        [[1, 3], [2, 1], [5, 6]],
    ]


def test_report_json_shape():
    mech = serial_quota((1, 1), (0, 1), lex_class(2))
    payload = through_json(report_to_json(check(mech, [TRUTHFUL])[0]))
    assert payload == {
        "property": "truthful",
        "holds": True,
        "witness": None,
        "profiles_checked": 4,
    }


def test_audit_json_has_exact_and_decimal_ratio():
    mech = serial_quota((1, 2), (0, 1), additive_class(3))
    audit = rho_mms_audit(mech, GeneratorSpec(2, 3, families=("identical",)))
    payload = through_json(audit_to_json(audit))
    assert payload["worst_ratio"] == [1, 1]
    assert payload["worst_ratio_decimal"] == 1.0
    dirty = serial_quota((2, 1), (0, 1), additive_class(3))
    audit = ef1_audit(dirty, GeneratorSpec(2, 3, families=("targeted",)))
    payload = through_json(audit_to_json(audit))
    assert payload["ef1_violations"]
    assert set(payload["ef1_violations"][0]) == {"instance", "envious", "envied"}


def test_characterization_json_lists_survivors():
    report = verify_characterization(2, 2, lex_class(2), partition_only=True)
    payload = through_json(characterization_to_json(report))
    assert payload["verdict"] == "sets-equal"
    assert payload["satisfying_count"] == 4
    assert len(payload["recognized"]) == 4
    assert "counterexample" not in payload
    assert payload["tables_enumerated"] == 4**4
    assert payload["nodes"] > 0 and payload["prunes"] >= 0


def test_characterization_json_prints_any_table_count():
    # 32^14400 has 21,675 digits, past CPython's default int printing limit.
    report = verify_characterization(2, 2, lex_class(2), partition_only=True)
    huge = dataclasses.replace(report, tables_enumerated=32**14400)
    payload = through_json(characterization_to_json(huge))
    assert payload["tables_enumerated"] == str(Decimal(32**14400))
