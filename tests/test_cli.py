"""Exit-code contract and report determinism for the command-line surface."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import serialquota
from serialquota import PropertyReport, engine, replay_witness, search
from serialquota.cli import main
from serialquota.serialize import mechanism_from_json

SQ_JSON = {
    "kind": "serial_quota",
    "q": [1, 2],
    "p": [0, 1],
    "m": 3,
    "class": {"tag": "lex", "m": 3},
}
BOSSY_JSON = {"kind": "counter_bossy", "n": 3, "m": 3, "class": {"tag": "lex", "m": 3}}


@pytest.fixture()
def mech_file(tmp_path):
    def write(payload, name="mech.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def test_check_passes_on_serial_quota(mech_file, capsys):
    code = main(["check", "--mech", mech_file(SQ_JSON), "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "truthful: pass" in out
    assert "neutral: pass" in out


def test_check_reports_violation_with_witness(mech_file, capsys):
    code = main(
        ["check", "--mech", mech_file(BOSSY_JSON), "--axioms", "nonbossy", "--no-timestamp"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "non_bossy: FAIL" in out
    assert "witness" in out


def test_check_pushup_is_exhaustive(mech_file, capsys):
    code = main(["check", "--mech", mech_file(SQ_JSON), "--axioms", "pushup",
                 "--no-timestamp"])
    assert code == 0
    # lex over 3 goods has 6 members: 6^2 profiles, every one checked.
    assert capsys.readouterr().out == "push_up_invariance: pass (36 profiles)\n"


def test_check_pushup_witness_replays(mech_file, tmp_path, capsys):
    payload = {"kind": "counter_non_truthful", "n": 2, "class": {"tag": "lex", "m": 2}}
    out = tmp_path / "report.json"
    code = main(["check", "--mech", mech_file(payload), "--axioms", "pushup",
                 "--out", str(out), "--no-timestamp"])
    assert code == 1
    assert "push_up_invariance: FAIL (4 profiles)" in capsys.readouterr().out
    (entry,) = json.loads(out.read_text())["reports"]
    report = PropertyReport(
        entry["property"], entry["holds"], entry["witness"], entry["profiles_checked"]
    )
    assert set(report.witness) == {"profile_index", "push_profile_index"}
    assert replay_witness(mechanism_from_json(payload), report)


@pytest.mark.parametrize("axioms", ["", ",", " , "])
def test_check_rejects_an_empty_axiom_list(mech_file, tmp_path, axioms, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--mech", mech_file(SQ_JSON), "--axioms", axioms,
                 "--out", str(out), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: no axioms given")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_check_rejects_quota_overflow(mech_file, capsys):
    bad = dict(SQ_JSON, q=[2, 2])
    code = main(["check", "--mech", mech_file(bad), "--no-timestamp"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_rejects_a_negative_quota(mech_file, capsys):
    bad = {"kind": "serial_quota", "q": [2, -1], "p": [0, 1], "m": 1}
    code = main(["check", "--mech", mech_file(bad), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: quotas must be non-negative: (2, -1)\n"


def test_check_builds_one_table_for_every_axiom(mech_file, monkeypatch, capsys):
    built = []
    table = engine.allocation_table

    def counted(mech):
        built.append(mech)
        return table(mech)

    monkeypatch.setattr(engine, "allocation_table", counted)
    code = main(["check", "--mech", mech_file(BOSSY_JSON), "--axioms",
                 "truthful,nonbossy,neutral,partition,pareto,control,pushup",
                 "--no-timestamp"])
    assert code == 1
    assert capsys.readouterr().out.count(" profiles)\n") == 7
    assert len(built) == 1


def test_check_prints_nothing_before_an_error(mech_file, capsys):
    # One good and 3200 agents: truthfulness holds at the single profile,
    # but the Pareto check's 3201 assignments of 3200 bundles pass the cap,
    # and no verdict is printed before the error.
    big = {"kind": "serial_quota", "q": [1] + [0] * 3199, "p": list(range(3200)),
           "m": 1, "class": {"tag": "lex", "m": 1}}
    code = main(["check", "--mech", mech_file(big), "--axioms", "truthful,pareto",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: 10243200 assignment entries exceed the 10000000 cap\n"


@pytest.mark.parametrize("mode", ["exhaustive", "mutate"])
def test_verify_names_a_class_it_cannot_enumerate(mode, capsys):
    code = main(["verify", "--n", "2", "--m", "3", "--class", "strict_additive",
                 "--mode", mode, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: preference class strict_additive (m=3) cannot be enumerated\n"
    )


@pytest.mark.parametrize("n,m", [(1, 2), (1, 1), (2, 1)])
def test_verify_mutation_refuses_sizes_it_cannot_falsify(n, m):
    # One agent leaves a single partition to draw a mutant from, and one
    # good a single profile, where every mutant is a serial-quota table.
    done = run_cli("verify", "--n", str(n), "--m", str(m), "--mode", "mutate",
                   "--no-timestamp")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"error: mutation mode needs n >= 2 and m >= 2 to falsify anything, "
        f"got n={n}, m={m}; use exhaustive mode\n"
    )


def test_verify_mutation_rejects_a_negative_default_base(capsys):
    # With n > m the default base (1,...,1, m-n+1) has a negative last quota.
    code = main(["verify", "--n", "3", "--m", "1", "--mode", "mutate", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: quotas must be non-negative: (1, 1, -1)\n"


@pytest.mark.parametrize("args,error", [
    ("--n 2 --m 2 --mode exhaustive --q 5,5 --p 0,0 --trials -3",
     "exhaustive mode does not take --q, --p, --trials"),
    ("--n 2 --m 2 --mode exhaustive --seed 0", "exhaustive mode does not take --seed"),
    ("--n 2 --m 3 --mode mutate --allocations --trials 10",
     "mutate mode does not take --allocations; it draws partition mutants"),
    ("--n 3 --m 3 --mode mutate --q 1,2 --p 0,1 --trials 5",
     "--n 3 does not match quota length 2"),
], ids=["exhaustive-mutation-flags", "exhaustive-default-seed", "mutate-allocations",
        "mutate-n-mismatch"])
def test_verify_refuses_flags_it_would_ignore(args, error, capsys):
    # Each of these used to exit 0 with a verdict that ignored a flag.
    code = main(["verify", *args.split(), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_check_refuses_a_class_whose_m_disagrees(mech_file, capsys):
    # The class's m = 2 used to replace the declared m = 3 silently.
    payload = {**SQ_JSON, "q": [1, 1], "class": {"tag": "lex", "m": 2}}
    code = main(["check", "--mech", mech_file(payload), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: mechanism declares m=3 but its class has m=2\n"


def test_check_pushup_refuses_a_class_past_the_member_pair_cap(mech_file, monkeypatch, capsys):
    # lex over 3 goods has 6 members: one agent's 6 profiles pass a cap
    # lowered to 35, but the push-up table's 6^2 member pairs do not.  The
    # uncached function keeps an earlier test's table from hiding the gate.
    monkeypatch.setattr(engine, "PROFILE_CAP", 35)
    monkeypatch.setattr(engine, "push_up_matrix", engine.push_up_matrix.__wrapped__)
    payload = {**SQ_JSON, "q": [3], "p": [0]}
    code = main(["check", "--mech", mech_file(payload), "--axioms", "pushup",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: 6^2 push-up member pairs exceed the 35 cap\n"


def _table_json(row):
    # lex over 2 goods has 2 members, so a 2-agent table has 4 profiles.
    return {"kind": "table", "class": {"tag": "lex", "m": 2}, "n": 2, "alloc": [row] * 4}


def test_check_rejects_overlapping_table_bundles(mech_file, capsys):
    code = main(["check", "--mech", mech_file(_table_json([3, 3])),
                 "--axioms", "truthful,nonbossy,neutral,partition", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: table row 0: bundles overlap\n"


def test_check_rejects_out_of_range_table_bundle(mech_file, capsys):
    code = main(["check", "--mech", mech_file(_table_json([7, 0])), "--no-timestamp"])
    assert code == 2
    assert capsys.readouterr().err == "error: table row 0: bundle 7 outside [0, 4)\n"


def test_check_rejects_unknown_axiom(mech_file):
    assert main(["check", "--mech", mech_file(SQ_JSON), "--axioms", "anonymity"]) == 2


def test_check_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", "--mech", str(path)]) == 2


@pytest.mark.parametrize("payload,error", [
    ({"kind": "serial_quota", "p": [0, 1], "m": 3},
     "serial_quota descriptor has no 'q' field"),
    (_table_json([1, 2]) | {"class": {"m": 2}}, "class has no 'tag' field"),
    (SQ_JSON | {"class": 7}, "'class' must be a tag string or a JSON object, got 7"),
    ([SQ_JSON], "a mechanism descriptor must be a JSON object, got list"),
    ({"kind": "serial_quota", "q": "12", "p": "01", "m": 3},
     "'q' must be a list of integers, got '12'"),
    (SQ_JSON | {"m": "3"}, "'m' must be an integer, got '3'"),
    (_table_json([1, 2]) | {"alloc": [[1, 2]] * 3 + ["12"]},
     "'alloc[3]' must be a list of integers, got '12'"),
    ({"kind": "table", "alloc": [[1]],
      "class": {"tag": "explicit", "m": 1, "members": [{"kind": "lex"}]}},
     "lex preference has no 'order' field"),
], ids=["no-q", "class-without-tag", "class-int", "top-level-array", "q-string", "m-string",
        "alloc-row-string", "preference-without-order"])
def test_check_rejects_a_malformed_descriptor(payload, error, mech_file, capsys):
    code = main(["check", "--mech", mech_file(payload), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_verify_exhaustive_small(capsys):
    code = main(["verify", "--n", "2", "--m", "2", "--class", "lex",
                 "--mode", "exhaustive", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sets-equal" in out


def test_verify_mutation_zero_survivors(capsys):
    code = main(["verify", "--n", "2", "--m", "3", "--class", "lex", "--mode",
                 "mutate", "--trials", "200", "--seed", "7", "--no-timestamp"])
    assert code == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_mutation_rejects_non_positive_trials(trials, capsys):
    code = main(["verify", "--n", "2", "--m", "3", "--class", "lex", "--mode",
                 "mutate", "--trials", trials, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: trials must be at least 1, got {trials}\n"


def test_verify_exhaustive_over_cap_is_usage_error(monkeypatch, capsys):
    # 120^2 profiles and 15,360 rank masks pass the gates of a cap lowered to
    # 2 * 10^4, but the 10 distinct family allocations at profile 0 need
    # 10 * 120^2 nodes, so the family bound stops it before the search.
    monkeypatch.setattr(search, "NODE_CAP", 2 * 10**4)
    code = main(["verify", "--n", "2", "--m", "5", "--class", "lex",
                 "--mode", "exhaustive", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "node cap" in captured.err


@pytest.mark.parametrize("n,m,error", [
    ("-1", "2", "need n >= 1 and m >= 0, got n=-1, m=2"),
    ("0", "2", "need n >= 1 and m >= 0, got n=0, m=2"),
    ("2", "-1", "need m >= 0, got m=-1"),
], ids=["n-1", "n0", "m-1"])
def test_verify_rejects_out_of_range_sizes(n, m, error, capsys):
    code = main(["verify", "--n", n, "--m", m, "--mode", "exhaustive", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


# One member per class means one profile, whatever n is: a 100-agent
# m = 1 mechanism has more agents than numpy has axes, and m = 0 has no
# goods at all.
SINGLE_PROFILE = [
    {"kind": "serial_quota", "q": [1] + [0] * 99, "p": list(range(100)), "m": 1,
     "class": {"tag": "lex", "m": 1}},
    {"kind": "serial_quota", "q": [0, 0], "p": [0, 1], "m": 0,
     "class": {"tag": "lex", "m": 0}},
]


@pytest.mark.parametrize("mech", SINGLE_PROFILE, ids=["n100-m1", "n2-m0"])
def test_check_every_axiom_at_a_single_profile(mech, mech_file, capsys):
    code = main(["check", "--mech", mech_file(mech), "--axioms",
                 "truthful,nonbossy,neutral,partition,pareto,control,pushup",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.count(": pass (1 profiles)\n") == 7, captured.out


@pytest.mark.parametrize("n,m,family", [("70", "1", 70), ("2", "0", 1)])
def test_verify_exhaustive_at_a_single_profile(n, m, family, capsys):
    code = main(["verify", "--n", n, "--m", m, "--mode", "exhaustive", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == f"verdict: sets-equal ({family} satisfying, family {family})\n"


def test_verify_exhaustive_gate_does_not_build_the_table_count(capsys):
    # 3^7 choices at each of 5040^2 profiles: the table count alone would
    # take about 2.8 * 10^8 bits.
    start = time.perf_counter()
    code = main(["verify", "--n", "2", "--m", "7", "--class", "lex",
                 "--mode", "exhaustive", "--allocations", "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "cap" in err
    assert time.perf_counter() - start < 5


def test_fairness_mms_identical_family(capsys):
    code = main(["fairness", "mms", "--q", "1,3", "--n", "2", "--m", "4",
                 "--family", "identical", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "worst_ratio: 500004/1000003" in out
    assert "floor 1/2: met" in out


def test_fairness_ef1_clean(capsys):
    code = main(["fairness", "ef1", "--q", "1,1,2", "--n", "3", "--m", "5",
                 "--count", "200", "--seed", "1", "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 violations" in out


def test_fairness_ef1_violation_witness(capsys):
    code = main(["fairness", "ef1", "--q", "2,1", "--n", "2", "--m", "3",
                 "--no-timestamp"])
    out = capsys.readouterr().out
    # violations expected for an infeasible quota, so expectations are met
    assert code == 0
    assert "witness" in out


@pytest.mark.parametrize("audit", ["mms", "ef1"])
def test_fairness_without_instances_is_usage_error(audit, capsys):
    # The targeted family builds nothing for this vector.
    code = main(["fairness", audit, "--q", "1,1,4", "--m", "6", "--family",
                 "targeted", "--count", "5", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: families targeted generated no instances\n"


def test_fairness_rejects_a_negative_count(capsys):
    code = main(["fairness", "mms", "--q", "1,3", "--m", "4", "--count", "-5",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need count >= 0, got count=-5\n"


def test_fairness_rejects_mismatched_n():
    assert main(["fairness", "mms", "--q", "1,2", "--n", "3", "--m", "3"]) == 2


def test_fairness_mms_with_more_agents_than_goods_prints_nothing(capsys):
    code = main(["fairness", "mms", "--q", "1,1,0", "--m", "2",
                 "--family", "identical", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need 1 <= n <= m\n"


def test_fairness_rejects_too_many_goods_before_building_instances(capsys):
    start = time.perf_counter()
    code = main(["fairness", "mms", "--q", "1,16", "--m", "17",
                 "--family", "identical", "--no-timestamp"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "m <= 16" in capsys.readouterr().err
    assert elapsed < 1.0


def run_cli(*args):
    """The CLI in a fresh interpreter, killed after 60 s so a hang fails."""
    src = str(Path(serialquota.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "serialquota", *args], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )


def test_mutation_at_four_by_four_finishes():
    # 24^4 profiles: each mutant is checked on its own deviation rows and
    # neutrality pairs, not by a full-table scan.
    done = run_cli("verify", "--n", "4", "--m", "4", "--class", "lex", "--mode",
                   "mutate", "--trials", "10000", "--no-timestamp")
    assert done.returncode == 0, done.stderr
    assert "pass (10000 mutants" in done.stdout


def test_deviation_checks_at_two_by_six_finish(mech_file):
    # 720^2 profiles: a whole-table rank gather for truthfulness would be
    # 720^3 int32 (about 1.5 GB); the blocked scans stay near 4M entries.
    sq26 = {**SQ_JSON, "q": [2, 3], "p": [1, 0], "m": 6, "class": {"tag": "lex", "m": 6}}
    done = run_cli("check", "--mech", mech_file(sq26), "--axioms",
                   "truthful,nonbossy,pushup", "--no-timestamp")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(": pass (518400 profiles)") == 3, done.stdout


def test_characterize_script_prints_verdicts_with_node_counts():
    script = Path(__file__).resolve().parents[1] / "scripts" / "characterize.py"
    src = str(Path(serialquota.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(script), "--max-n", "2", "--max-m", "2"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # n, m in 1..2, two classes, two modes.
    assert len(lines) == 16, done.stdout
    for line in lines:
        assert re.search(r": sets-equal \(.*, [1-9][0-9]* nodes, [0-9]+ nodes/s\)$", line), line
    # An empty sweep used to print nothing and exit 0.
    for max_n, max_m in (("0", "3"), ("-2", "-1")):
        done = subprocess.run(
            [sys.executable, str(script), "--max-n", max_n, "--max-m", max_m],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"error: need --max-n >= 1 and --max-m >= 1, got {max_n} and {max_m}\n"
        )


def test_pareto_check_at_four_by_four_finishes(mech_file):
    # 24^4 profiles against 5^4 assignments: Pareto is gated by the profile
    # cap and the assignment table's size, not by n and m on their own.
    sq44 = {**SQ_JSON, "q": [1, 1, 1, 1], "p": [3, 1, 0, 2], "m": 4,
            "class": {"tag": "lex", "m": 4}}
    done = run_cli("check", "--mech", mech_file(sq44), "--axioms", "pareto", "--no-timestamp")
    assert done.returncode == 0, done.stderr
    assert "pareto_efficient: pass (331776 profiles)" in done.stdout, done.stdout


@pytest.mark.parametrize("args", [
    "fairness ef1 --q 1,9 --m 10 --family random --count 1",
    "fairness ef1 --q 1,1,14 --m 16",
    "fairness mms --q 1,15 --m 16",
])
def test_fairness_random_family_finishes_at_large_m(args):
    # Most random rows tie at m = 10 and every row ties from m = 14 on.
    done = run_cli(*args.split(), "--no-timestamp")
    assert done.returncode in (0, 1), done.stderr
    assert done.stderr == ""


def test_fairness_mms_above_the_partition_cap_is_one_line():
    done = run_cli("fairness", "mms", "--q", "1,1,14", "--m", "16", "--no-timestamp")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: 3^16 partitions exceed the brute-force cap\n"


def test_check_rejects_values_past_the_int64_guard(mech_file, capsys):
    member = {"kind": "additive", "values": [[4611686018427387904, 1], [1, 1]]}
    payload = {
        "kind": "serial_quota", "q": [1, 1], "p": [0, 1], "m": 2,
        "class": {"tag": "explicit", "m": 2, "members": [
            {"kind": "lex", "order": [0, 1]}, {"kind": "lex", "order": [1, 0]}, member,
        ]},
    }
    code = main(["check", "--mech", mech_file(payload), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "2^62" in captured.err


@pytest.mark.parametrize("args", [
    ["check", "--mech", None],
    ["verify", "--mode", "mutate", "--n", "2", "--m", "8"],
])
def test_profile_cap_stops_before_building_tables(args, mech_file, capsys):
    # lex over 8 goods has 40320 members: 1.6 * 10^9 profiles at n = 2.
    big = {"kind": "serial_quota", "q": [1, 7], "p": [0, 1], "m": 8}
    args = [mech_file(big) if a is None else a for a in args]
    start = time.perf_counter()
    code = main([*args, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: 40320^2 profiles exceed the 10000000-profile cap\n"
    assert time.perf_counter() - start < 5


def test_reports_are_byte_identical_without_timestamp(tmp_path, capsys):
    paths = [str(tmp_path / f"r{i}.json") for i in range(2)]
    for path in paths:
        assert main(["fairness", "mms", "--q", "1,2", "--n", "2", "--m", "3",
                     "--count", "30", "--seed", "4", "--no-timestamp",
                     "--out", path]) == 0
    capsys.readouterr()
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b
    payload = json.loads(a)
    assert "timestamp" not in payload
    assert payload["floor"] == [1, 1]  # rho_bound(2, 3) = 1/floor(3/2)


def test_reproduce_report_byte_identical_without_timestamp(tmp_path, capsys):
    # One run against the committed report: a second run in this process
    # would reuse acceptance's cached results and prove nothing.
    path = tmp_path / "rep.json"
    assert main(["reproduce-paper", "--no-timestamp", "--out", str(path)]) == 0
    capsys.readouterr()
    committed = Path(__file__).resolve().parents[1] / "reports" / "reproduce.json"
    a = path.read_bytes()
    assert a == committed.read_bytes()
    payload = json.loads(a)
    assert payload["all_passed"]
    assert all("seconds" not in row for row in payload["criteria"])


def test_timestamp_present_by_default(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    assert main(["fairness", "mms", "--q", "1,2", "--n", "2", "--m", "3",
                 "--count", "5", "--seed", "4", "--out", path]) == 0
    capsys.readouterr()
    assert "timestamp" in json.loads(open(path).read())


def test_check_writes_report_file(mech_file, tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    main(["check", "--mech", mech_file(SQ_JSON), "--no-timestamp", "--out", out_path])
    capsys.readouterr()
    payload = json.loads(open(out_path).read())
    assert payload["mechanism"]["kind"] == "serial_quota"
    assert all(r["holds"] for r in payload["reports"])
