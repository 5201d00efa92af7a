"""JSON system descriptions, report encoding, exit codes, and the
subcommands end to end."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab
from skewlab import (
    ExtensionSystem,
    GroupTooLarge,
    IterationSchedule,
    ParseError,
    run_factor,
    run_isomorphism,
    trivial,
)
from skewlab.cli import (
    DENOMINATOR_LIMIT,
    ECHO_LIMIT,
    GROUP_ORDER_LIMIT,
    _encode,
    _fraction_in,
    _load_pair,
    build_parser,
    parse_group_spec,
    parse_system_spec,
    run_command,
)
from skewlab.groups import cyclic
from skewlab.names import NAME_WORK_LIMIT

import oracles


def write_system(path, size, labels, group, skew):
    path.write_text(
        json.dumps({"size": size, "labels": labels, "group": group, "skew": skew})
    )
    return str(path)


@pytest.fixture
def marker_pair(tmp_path):
    t = write_system(
        tmp_path / "t.json", 48,
        [1 if x == 47 else 0 for x in range(48)], {"type": "trivial"}, [0] * 48,
    )
    s = write_system(
        tmp_path / "s.json", 48,
        [1 if x == 20 else 0 for x in range(48)], {"type": "trivial"}, [0] * 48,
    )
    return t, s


# ---------------------------------------------------------------------------
# parsing


# Fraction builds 10**3000000 before its digit limit refuses this: 2.3 s
LONG_DECIMAL = "0." + "5" * 3_000_000


def test_fraction_in_accepts_ints_and_strings():
    assert _fraction_in(3) == 3
    assert _fraction_in("3/4") == Fraction(3, 4)
    assert _fraction_in("-3/4") == Fraction(-3, 4)
    # exponent and decimal forms are refused unread: Fraction spends 15 s on the first
    for bad in (True, 1.5, "x", "1/0", None, "1e-100000000", "0.5", LONG_DECIMAL, " 1/2"):
        with pytest.raises(ParseError):
            _fraction_in(bad)


def test_parse_group_specs():
    assert parse_group_spec({"type": "trivial"}).order == 1
    assert parse_group_spec({"type": "cyclic", "order": 5}).order == 5
    assert parse_group_spec({"type": "trivial"}) == parse_group_spec({"type": "cyclic", "order": 1})
    discrete = parse_group_spec({"type": "cyclic", "order": 4, "metric": [0, 1, "1/1", 1]})
    assert (discrete.order, discrete.row) == (4, (0, 1, 1, 1))
    assert discrete.name == "Z/4, metric 0/1,1/1,1/1,1/1"
    assert all(discrete.mul[g][-g % 4] == 0 for g in range(4))
    assert parse_group_spec({"type": "cyclic", "order": 2, "metric": [0, 1]}) == cyclic(2)


def test_parse_group_rejects_malformed():
    for bad in (
        "cyclic",
        {},
        {"type": "nope"},
        {"type": "cyclic", "order": 0},
        {"type": "cyclic", "order": "2"},
        # a group of any other type, its tables included, is malformed
        {"type": "tables", "mul": [[0, 1], [1, 0]]},
        {"type": "cyclic", "order": 2, "metric": [0]},
        {"type": "cyclic", "order": 2, "metric": [1, 1]},
        {"type": "cyclic", "order": 3, "metric": [0, "1/2", 1]},
    ):
        with pytest.raises(ParseError):
            parse_group_spec(bad)


def test_parse_group_refuses_orders_above_the_limit():
    largest = parse_group_spec({"type": "cyclic", "order": GROUP_ORDER_LIMIT})
    assert largest.order == GROUP_ORDER_LIMIT
    big = GROUP_ORDER_LIMIT + 1
    # a row is refused on the order, before its length or entries are read
    for spec in (
        {"type": "cyclic", "order": 4096},
        {"type": "cyclic", "order": big},
        {"type": "cyclic", "order": big, "metric": "not a row"},
    ):
        with pytest.raises(GroupTooLarge) as err:
            parse_group_spec(spec)
        assert str(err.value) == "group order %d exceeds the limit %d" % (spec["order"], GROUP_ORDER_LIMIT)


def test_a_long_row_is_refused_on_its_length():
    # three million entries at order 2: refused before one entry is read
    start = time.perf_counter()
    with pytest.raises(ParseError, match="metric must be a list of 2 entries"):
        parse_group_spec({"type": "cyclic", "order": 2, "metric": [LONG_DECIMAL] * 3_000_000})
    assert time.perf_counter() - start < 1.0


def test_parse_group_refuses_a_common_denominator_past_the_limit():
    # the limit itself is read; an entry that takes the common denominator past it
    # is refused at once, before the entries after it are read
    at = parse_group_spec({"type": "cyclic", "order": 2, "metric": [0, "1/%d" % DENOMINATOR_LIMIT]})
    assert at.int_metric[0] == DENOMINATOR_LIMIT
    two, three = 2**200, 3**200
    row = [0, "%d/%d" % (two // 2 + 1, two), "%d/%d" % (three // 2 + 1, three), "not a fraction"]
    with pytest.raises(GroupTooLarge) as err:
        parse_group_spec({"type": "cyclic", "order": 4, "metric": row})
    assert str(err.value) == (
        "metric entry 2 (%s... (%d characters)) takes the common denominator past the limit 2**256"
        % (repr(row[2])[:ECHO_LIMIT], len(repr(row[2])))
    )


def test_a_row_of_long_denominators_exits_two_at_once(tmp_path):
    # 128 distinct 1,000-digit denominators in a Z/256 row (0.5 MB): a common
    # denominator of 425,000 bits, on which the triangle check alone took 3.3 s
    half = ["%d/%d" % (10**999 + g + 1, 2 * 10**999 + 2 * g + 1) for g in range(1, 129)]
    row = [0] + half + half[:127][::-1]
    big = write_system(tmp_path / "big.json", 2, [0, 1], {"type": "cyclic", "order": 256, "metric": row}, [1, 0])
    out = tmp_path / "big_out.json"
    start = time.perf_counter()
    rc = run_command(["metrics", "--target", big, "--source", big, "--n", "1", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    body = json.loads(out.read_text())
    assert body["error"] == "GroupTooLarge"
    assert body["detail"].startswith("metric entry 1 (")


def test_group_over_the_limit_exits_two(tmp_path):
    big = write_system(tmp_path / "big.json", 2, [0, 0], {"type": "cyclic", "order": 4096}, [0, 0])
    out = tmp_path / "big_out.json"
    rc = run_command(["metrics", "--target", big, "--source", big, "--n", "1", "--out", str(out)])
    assert rc == 2
    assert json.loads(out.read_text()) == {
        "error": "GroupTooLarge",
        "detail": "group order 4096 exceeds the limit %d" % GROUP_ORDER_LIMIT,
    }


def test_parse_cyclic_group_with_fraction_metric():
    # Z/3's circle metric written out as "p/q" strings is Z/3
    g = parse_group_spec({"type": "cyclic", "order": 3, "metric": ["0/1", "1/1", "1/1"]})
    assert g == cyclic(3)
    assert g.metric == cyclic(3).metric
    assert g.name == "Z/3, metric 0/1,1/1,1/1"
    half = parse_group_spec({"type": "cyclic", "order": 2, "metric": ["0/1", "1/2"]})
    assert half.metric == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))


def test_parse_system_spec_reads_every_field():
    ext = parse_system_spec({
        "size": 6,
        "labels": [0, 1, 0, 1, 0, 1],
        "group": {"type": "cyclic", "order": 2},
        "skew": [1, 0, 0, 1, 0, 0],
    })
    assert ext == ExtensionSystem(
        size=6, labels=(0, 1, 0, 1, 0, 1), group=cyclic(2), skew=(1, 0, 0, 1, 0, 0)
    )


def test_parse_system_rejects_malformed():
    good = {
        "size": 4,
        "labels": [0, 0, 0, 1],
        "group": {"type": "trivial"},
        "skew": [0, 0, 0, 0],
    }
    for mutate in (
        lambda d: d.pop("labels"),
        lambda d: d.update(size=0),
        lambda d: d.update(size="4"),
        lambda d: d.update(labels=[0, 0, 0]),
        lambda d: d.update(labels=[0, 0, 0, True]),
        lambda d: d.update(skew=[0, 0, 0, 5]),
    ):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(ParseError):
            parse_system_spec(bad)
    with pytest.raises(ParseError):
        parse_system_spec([1, 2, 3])


TWO_POINTS = {"size": 2, "labels": [0, 1], "skew": [0, 0]}


@pytest.mark.parametrize(
    "spec",
    [
        {"size": True, "labels": [0], "group": {"type": "trivial"}, "skew": [0]},
        {**TWO_POINTS, "group": {"type": "cyclic", "order": True}},
        {**TWO_POINTS, "group": {"type": "tables", "mul": [[0, True], [True, 0]]}},
        {**TWO_POINTS, "group": {"type": "tables", "mul": [[0, 1.9], [1.9, 0]]}},
        {**TWO_POINTS, "group": {"type": "tables", "mul": [[0, "1"], ["1", 0]]}},
        {**TWO_POINTS, "group": {"type": "tables", "mul": ["01", "10"]}},
        {**TWO_POINTS, "group": {"type": "tables", "mul": [[0, "x"], [1, 0]]}},
        {**TWO_POINTS, "group": {"type": "cyclic", "order": 2, "metric": 5}},
        {**TWO_POINTS, "group": {"type": "cyclic", "order": 2, "metric": [5, 6]}},
        {**TWO_POINTS, "group": {"type": "cyclic", "order": 2, "metric": [[0, 1], [1, 0]]}},
        {**TWO_POINTS, "group": {"type": "cyclic", "order": 2, "metric": [0, "0.5"]}},
        {**TWO_POINTS, "group": {"type": "cyclic", "order": 2, "metric": [0, LONG_DECIMAL]}},
    ],
    ids=[
        "size_true", "order_true", "mul_true", "mul_float", "mul_digit_string",
        "mul_row_string", "mul_letter", "metric_scalar", "metric_flat", "metric_nested",
        "metric_decimal", "metric_long_decimal",
    ],
)
def test_malformed_spec_exits_one_with_parse_error(tmp_path, spec):
    # each of these once ran as a system, or raised a traceback; the mul
    # cases are groups given by their tables, which no longer describe a group
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    rc = run_command(["metrics", "--target", str(path), "--source", str(path), "--n", "1", "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["error"] == "ParseError"


def test_a_long_rejected_entry_is_echoed_in_part(tmp_path):
    # echoed whole, this 3 MB entry made a 3,000,081-byte error body
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**TWO_POINTS, "group": {
        "type": "cyclic", "order": 2, "metric": [0, LONG_DECIMAL]}}))
    out = tmp_path / "out.json"
    rc = run_command(["metrics", "--target", str(path), "--source", str(path), "--n", "1", "--out", str(out)])
    assert rc == 1
    body = out.read_bytes()
    assert len(body) < 1024
    assert json.loads(body) == {
        "error": "ParseError",
        "detail": "cannot read %s... (3000004 characters) as an exact fraction"
        % repr(LONG_DECIMAL)[:ECHO_LIMIT],
    }


# ---------------------------------------------------------------------------
# exit codes and report files


def test_metrics_identical_distributions(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "m.json"
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    # single markers at different positions share one rotation name law
    assert payload["name_distance"]["exact"] == "0/1"
    assert payload["target"]["ergodic"] is True
    assert payload["target"]["cycle_length"] == 48


def test_metrics_marker_versus_constant(tmp_path):
    t = write_system(
        tmp_path / "t.json", 48,
        [1 if x == 47 else 0 for x in range(48)], {"type": "trivial"}, [0] * 48,
    )
    c = write_system(
        tmp_path / "c.json", 48, [0] * 48, {"type": "trivial"}, [0] * 48,
    )
    out = tmp_path / "m.json"
    rc = run_command(["metrics", "--target", t, "--source", c, "--n", "4", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["name_distance"]["exact"] == "1/12"


def _z64_pair(tmp_path):
    # the metrics_z64 benchmark pair at seed 0: Z/64, N = 128, labels 1 at 5 and 102
    labels = [1 if x in (5, 102) else 0 for x in range(128)]
    group = {"type": "cyclic", "order": 64}
    skews = ({0: 1, 42: 2}, {64: 1, 25: 2, 7: 62})
    return [
        write_system(tmp_path / name, 128, labels, group, [skew.get(x, 0) for x in range(128)])
        for name, skew in zip(("t.json", "s.json"), skews)
    ]


def test_metrics_z64_frozen_distance(tmp_path):
    # one 64 x 64 transport problem over 33 cost levels
    t, s = _z64_pair(tmp_path)
    out = tmp_path / "m.json"
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "2", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["name_distance"]["exact"] == "1/4096"


def test_equal_group_specs_build_one_group(tmp_path, monkeypatch):
    built = []

    def counting_cyclic(m):
        built.append(m)
        return cyclic(m)

    monkeypatch.setattr("skewlab.cli.cyclic", counting_cyclic)
    t, s = _z64_pair(tmp_path)
    out = str(tmp_path / "m.json")
    assert run_command(["metrics", "--target", t, "--source", s, "--n", "1", "--out", out]) == 0
    assert built == [64]


def test_metrics_writes_to_stdout(marker_pair, capsys):
    t, s = marker_pair
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "metrics"


def test_missing_file_exits_one(marker_pair, tmp_path):
    _, s = marker_pair
    out = tmp_path / "err.json"
    rc = run_command(
        ["metrics", "--target", str(tmp_path / "no.json"), "--source", s, "--n", "4", "--out", str(out)]
    )
    assert rc == 1
    assert json.loads(out.read_text())["error"] == "ParseError"


# files json cannot read: garbled text, bytes that are not UTF-8, an integer
# past Python's 4,300-digit limit and arrays nested past the recursion limit
UNREADABLE = {
    "garbled": b"{not json",
    "not_utf8": b'{"size": 1, "labels": [0], "group": {"type": "trivial"}, "skew": [0], "x": "\xff"}',
    "long_integer": b'{"size": ' + b"1" * 5000 + b"}",
    "deep_array": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("name", list(UNREADABLE))
def test_not_json_exits_one(marker_pair, tmp_path, name):
    _, s = marker_pair
    garbled = tmp_path / "g.json"
    garbled.write_bytes(UNREADABLE[name])
    rc, text = _run_captured(["metrics", "--target", str(garbled), "--source", s, "--n", "4"])
    assert rc == 1
    payload = json.loads(text)
    assert payload["error"] == "ParseError"
    assert payload["detail"].startswith("%s is not JSON: " % garbled)


@pytest.mark.parametrize("n", ["4", "0"])
def test_unwritable_out_exits_one_on_stdout(marker_pair, tmp_path, n):
    # whether the run succeeds (n = 4) or fails (n = 0), the report cannot be written
    t, s = marker_pair
    out = tmp_path / "missing" / "r.json"
    rc, text = _run_captured(["metrics", "--target", t, "--source", s, "--n", n, "--out", str(out)])
    assert rc == 1
    payload = json.loads(text)
    assert payload["error"] == "ParseError"
    assert payload["detail"].startswith("cannot write %s: " % out)


def test_validation_error_exits_one(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "v.json"
    rc = run_command(
        ["seed-orbit", "--target", t, "--source", s,
         "--nlen", "99", "--zeta", "1/10", "--n", "4", "--out", str(out)]
    )
    assert rc == 1
    assert json.loads(out.read_text())["error"] == "ValidationError"


def test_refusal_exits_two_and_writes_reason(tmp_path):
    # a flip right at the chain start makes the bootstrap refuse
    bad = write_system(
        tmp_path / "bad.json", 64,
        [1 if x == 63 else 0 for x in range(64)],
        {"type": "cyclic", "order": 2},
        [1 if x == 0 else 0 for x in range(64)],
    )
    out = tmp_path / "ref.json"
    rc = run_command(
        ["improve", "--target", bad, "--source", bad,
         "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
         "--epsilon", "2/5", "--out", str(out)]
    )
    assert rc == 2
    payload = json.loads(out.read_text())
    assert payload["error"] == "Infeasible"
    assert "condition 4" in payload["detail"]


def test_block_longer_than_the_tower_exits_two(tmp_path):
    const = write_system(tmp_path / "c.json", 16, [0] * 16, {"type": "trivial"}, [0] * 16)
    out = tmp_path / "ref.json"
    rc = run_command(
        ["improve", "--target", const, "--source", const,
         "--n", "4", "--delta", "1/2", "--n1", "32", "--delta1", "1/20",
         "--epsilon", "1/2", "--out", str(out)]
    )
    assert rc == 2
    assert json.loads(out.read_text()) == {
        "error": "ScheduleInfeasible",
        "detail": "tower holds 16 ladder points, below one block of 32",
    }


@pytest.mark.parametrize(
    "size, step, error, detail",
    [
        # the bootstrap tower is one block of n, so no point has n steps left
        (12, ["--n", "8", "--delta", "1/2", "--n1", "8", "--delta1", "1/2", "--epsilon", "9/10"],
         "Infeasible", "bootstrap height 8 equals n = 8, so Dom(S^n) is empty"),
        # the ladder holds one n1-block, so the output chain has no n1-name start
        (8, ["--n", "1", "--delta", "1/2", "--n1", "8", "--delta1", "1/2", "--epsilon", "1/2"],
         "ScheduleInfeasible", "tower holds 8 ladder points, one block of 8: the output has no 8-name start"),
    ],
    ids=["bootstrap_height_is_n", "one_output_block"],
)
def test_a_tower_without_name_starts_exits_two(tmp_path, size, step, error, detail):
    # the two-flip Z/2 marker pair: target flip at 0, source flip at size/2
    labels = [1 if x == size - 1 else 0 for x in range(size)]
    t, s = (
        write_system(tmp_path / name, size, labels, {"type": "cyclic", "order": 2},
                     [1 if x == flip else 0 for x in range(size)])
        for name, flip in (("t.json", 0), ("s.json", size // 2))
    )
    out = tmp_path / "ref.json"
    rc = run_command(["improve", "--target", t, "--source", s, *step, "--out", str(out)])
    assert rc == 2
    assert json.loads(out.read_text()) == {"error": error, "detail": detail}


def test_name_work_over_the_limit_exits_two(tmp_path):
    # the CI's Z/8 transport pair: 32 name classes on 8 fibres, 100,000 long
    labels = [1 if x in (5, 6) else 0 for x in range(32)]
    group = {"type": "cyclic", "order": 8}
    skews = ({0: 1, 10: 2}, {0: 1, 25: 2, 7: 6})
    t, s = (
        write_system(tmp_path / name, 32, labels, group, [skew.get(x, 0) for x in range(32)])
        for name, skew in zip(("t8.json", "s8.json"), skews)
    )
    out = tmp_path / "ref.json"
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "100000", "--out", str(out)])
    assert rc == 2
    assert json.loads(out.read_text()) == {
        "error": "NameWorkTooLarge",
        "detail": "%d name entries exceed the limit %d" % (32 * 8 * 100000, NAME_WORK_LIMIT),
    }


# ---------------------------------------------------------------------------
# subcommand smokes


def test_improve_command(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "imp.json"
    rc = run_command(
        ["improve", "--target", t, "--source", s,
         "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
         "--epsilon", "2/5", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert all(payload["conclusions"].values())
    assert payload["report"]["name_distance"]["exact"] == "1/6"
    assert payload["bootstrap"]["height"] == 48
    assert len(payload["exponent"]) == 48


def test_factor_command_matches_library(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "f.json"
    args = [
        "factor", "--target", t, "--source", s,
        "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
        "--epsilon", "3/10", "--budget", "1", "--epsilons", "1/10",
        "--seed", "7", "--out", str(out),
    ]
    rc = run_command(args)
    assert rc == 0
    payload = json.loads(out.read_text())

    target = ExtensionSystem(
        size=48, labels=tuple(1 if x == 47 else 0 for x in range(48)),
        group=trivial(), skew=(0,) * 48,
    )
    source = ExtensionSystem(
        size=48, labels=tuple(1 if x == 20 else 0 for x in range(48)),
        group=trivial(), skew=(0,) * 48,
    )
    direct = run_factor(
        target, source, source.labels,
        IterationSchedule(
            epsilon=Fraction(3, 10), epsilons=(Fraction(1, 10),),
            steps=((4, Fraction(3, 10), 8, Fraction(3, 10)),),
            rectangles=((tuple(range(48)), (0,)),), budget=1,
        ),
    )
    rep = direct.log.reports[0]
    got = payload["reports"][0]
    assert got["name_distance"]["exact"] == "%d/%d" % (
        rep.name_distance.numerator, rep.name_distance.denominator
    )
    assert payload["labels"] == list(direct.labels)
    assert payload["exponent"] == list(direct.speedup.exponent)
    assert payload["witness"]["ergodic"] is True
    assert payload["seed"] == 7


def test_factor_reruns_byte_identical(marker_pair, tmp_path):
    t, s = marker_pair
    outs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        rc = run_command(
            ["factor", "--target", t, "--source", s,
             "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
             "--epsilon", "3/10", "--budget", "1", "--epsilons", "1/10",
             "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_iso_command_reports_generators(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "iso.json"
    rc = run_command(
        ["iso", "--target", t, "--source", s,
         "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
         "--epsilon", "3/10", "--budget", "1", "--epsilons", "1/10",
         "--copy-zeta", "1/2", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "iso"
    assert len(payload["generator"]) == 1
    assert payload["separation_failure"]["exact"] == "0/1"


@pytest.mark.parametrize("budget", [0, 2])
@pytest.mark.parametrize("command, loop", [("factor", run_factor), ("iso", run_isomorphism)])
def test_loop_commands_report_the_last_step(marker_pair, tmp_path, command, loop, budget):
    t, s = marker_pair
    out = tmp_path / "loop.json"
    rc = run_command(
        [command, "--target", t, "--source", s,
         "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
         "--epsilon", "3/10", "--budget", str(budget), "--epsilons", "1/10,1/20",
         "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    target, source = (
        ExtensionSystem(48, tuple(1 if x == m else 0 for x in range(48)), trivial(), (0,) * 48)
        for m in (47, 20)
    )
    direct = loop(
        target, source, source.labels,
        IterationSchedule(
            epsilon=Fraction(3, 10), epsilons=(Fraction(1, 10), Fraction(1, 20)),
            steps=((4, Fraction(3, 10), 8, Fraction(3, 10)),),
            rectangles=((tuple(range(48)), (0,)),), budget=budget,
        ),
    )
    assert len(payload["reports"]) == len(direct.steps) == budget
    if budget:
        last = direct.steps[-1]
        assert (payload["chain_start"], payload["model_start"]) == (last.chain[0], last.model.start)
    else:
        assert (payload["chain_start"], payload["model_start"]) == (None, 0)
    # iso reports its generators and separation check at every budget, 0 included
    if command == "iso":
        log = direct.log
        assert payload["generator"] == json.loads(json.dumps(_encode(list(log.generator))))
        assert len(payload["generator"]) == budget
        assert payload["separation_failure"] == _encode(log.separation_failure)
    else:
        assert "generator" not in payload and "separation_failure" not in payload


STEP_ARGS = ["--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10", "--epsilon", "3/10"]
PAIR_ARGS = {
    "metrics": ["--n", "4"],
    "improve": STEP_ARGS,
    "factor": [*STEP_ARGS, "--budget", "1"],
    "iso": [*STEP_ARGS, "--budget", "1"],
    "seed-orbit": ["--nlen", "48", "--zeta", "1/10", "--n", "4"],
}


@pytest.mark.parametrize("command", ["improve", "factor", "iso"])
def test_encoder_writes_what_the_recursive_oracle_writes(marker_pair, command):
    # the encoder hands lists of plain ints to json whole; the oracle dispatches every element
    t, s = marker_pair
    args = build_parser().parse_args([command, "--target", t, "--source", s, *PAIR_ARGS[command]])
    payload = args.func(args, *_load_pair(args))
    assert json.dumps(_encode(payload), indent=2, sort_keys=True) == json.dumps(
        oracles.encode_each(payload), indent=2, sort_keys=True
    )


@pytest.mark.parametrize(
    "target_group, source_group, detail",
    [
        (
            {"type": "cyclic", "order": 2}, {"type": "cyclic", "order": 3},
            "target group Z/2 (order 2) and source group Z/3 (order 3) differ",
        ),
        (
            {"type": "trivial"}, {"type": "cyclic", "order": 2},
            "target group trivial (order 1) and source group Z/2 (order 2) differ",
        ),
        # equal order, different metric: Z/4's circle metric is not discrete
        (
            {"type": "cyclic", "order": 4},
            {"type": "cyclic", "order": 4, "metric": [0, 1, 1, 1]},
            "target group Z/4 (order 4) and source group Z/4, metric 0/1,1/1,1/1,1/1 (order 4) differ",
        ),
    ],
)
@pytest.mark.parametrize("command", list(PAIR_ARGS))
def test_pair_of_different_groups_exits_one(tmp_path, command, target_group, source_group, detail):
    # checked once on loading, before any construction
    markers = [1 if x == 47 else 0 for x in range(48)]
    t = write_system(tmp_path / "t.json", 48, markers, target_group, [0] * 48)
    s = write_system(tmp_path / "s.json", 48, markers, source_group, [0] * 47 + [1])
    out = tmp_path / "out.json"
    rc = run_command([command, "--target", t, "--source", s, *PAIR_ARGS[command], "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text()) == {"error": "ParseError", "detail": detail}


@pytest.mark.parametrize(
    "order, size, flips, lap",
    [(2, 1024, (), 0), (4, 64, (0, 32), 2)],
    ids=["z2_no_flip", "z4_lap_2"],
)
@pytest.mark.parametrize("role", ["target", "source"])
@pytest.mark.parametrize("command", [c for c in PAIR_ARGS if c != "metrics"])
def test_a_non_ergodic_system_is_refused_at_the_door(tmp_path, command, role, order, size, flips, lap):
    # over one base cycle the orbit of (0, 0) meets the fibre over 0 in the
    # subgroup the lap generates, so a lap that misses Z/m splits the extension
    markers = [1 if x == size - 1 else 0 for x in range(size)]
    group = {"type": "cyclic", "order": order}
    split = [1 if x in flips else 0 for x in range(size)]
    ergodic = [1 if x == size // 2 else 0 for x in range(size)]
    skews = {"target": ergodic, "source": ergodic, role: split}
    t = write_system(tmp_path / "t.json", size, markers, group, skews["target"])
    s = write_system(tmp_path / "s.json", size, markers, group, skews["source"])
    out = tmp_path / "out.json"
    rc = run_command([command, "--target", t, "--source", s, *PAIR_ARGS[command], "--out", str(out)])
    assert rc == 2
    assert json.loads(out.read_text()) == {
        "error": "PreconditionViolated",
        "detail": "%s extension is not ergodic: its lap %d does not generate Z/%d" % (role, lap, order),
    }
    # metrics reports the split instead
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "2", "--out", str(out)])
    assert rc == 0
    witness = json.loads(out.read_text())[role]
    assert (witness["ergodic"], witness["splitting_point"]) == (False, [0, 1])


def test_a_long_group_name_is_echoed_in_part(tmp_path):
    # a group's name shows its metric row: 256 entries of 40-digit fractions
    # name it in about 20,000 characters, which the error body cuts
    big = 10 ** 40
    row = [0] + ["%d/%d" % (big + min(g, 256 - g), big + 256) for g in range(1, 256)]
    name = cyclic(256, [Fraction(v) for v in row]).name
    assert len(name) > 20_000
    markers = [1 if x == 47 else 0 for x in range(48)]
    t = write_system(tmp_path / "t.json", 48, markers,
                     {"type": "cyclic", "order": 256, "metric": row}, [1] + [0] * 47)
    s = write_system(tmp_path / "s.json", 48, markers, {"type": "cyclic", "order": 3}, [0] * 48)
    out = tmp_path / "out.json"
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "4", "--out", str(out)])
    assert rc == 1
    body = out.read_bytes()
    assert len(body) < 1024
    assert json.loads(body)["detail"] == (
        "target group %s... (%d characters) (order 256) and source group Z/3 (order 3) differ"
        % (name[:ECHO_LIMIT], len(name))
    )


def test_groups_compare_by_tables_not_by_spec(tmp_path):
    # a cyclic Z/2 and a Z/2 with its metric row written out have the same
    # tables, being equal in order and row, so they are one group
    markers = [1 if x == 15 else 0 for x in range(16)]
    t = write_system(
        tmp_path / "t.json", 16, markers, {"type": "cyclic", "order": 2},
        [1 if x == 0 else 0 for x in range(16)],
    )
    s = write_system(
        tmp_path / "s.json", 16, markers, {"type": "cyclic", "order": 2, "metric": [0, 1]},
        [1 if x == 8 else 0 for x in range(16)],
    )
    out = tmp_path / "m.json"
    rc = run_command(["metrics", "--target", t, "--source", s, "--n", "3", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["name_distance"]["exact"] == "1/8"


@pytest.mark.parametrize("command", list(PAIR_ARGS))
def test_every_command_stamps_command_and_seed(marker_pair, tmp_path, command):
    t, s = marker_pair
    out = tmp_path / "r.json"
    rc = run_command(
        [command, "--target", t, "--source", s, *PAIR_ARGS[command], "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert (payload["command"], payload["seed"]) == (command, 7)


def test_seed_orbit_command(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "so.json"
    rc = run_command(
        ["seed-orbit", "--target", t, "--source", s,
         "--nlen", "48", "--zeta", "1/10", "--n", "4", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert sum(payload["labels"]) == 1
    assert set(payload["alpha"]) == {0}


CONSTRUCTION = ("improvement", "driver", "towers", "matching")


@pytest.mark.parametrize(
    "command, args, absent",
    [
        ("metrics", ["--n", "4"], CONSTRUCTION),
        ("improve", STEP_ARGS, ("matching", "driver")),
        ("factor", STEP_ARGS + ["--budget", "1", "--epsilons", "1/10"], ("matching",)),
        ("iso", STEP_ARGS + ["--budget", "1", "--epsilons", "1/10"], ("matching",)),
        ("seed-orbit", ["--nlen", "48", "--zeta", "1/10", "--n", "4"], ("matching",)),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(marker_pair, tmp_path, command, args, absent):
    # a fresh interpreter, so no other test's imports count
    t, s = marker_pair
    probe = (
        "import sys\n"
        "from skewlab.cli import run_command\n"
        "rc = run_command(sys.argv[1:])\n"
        "print(rc, *sorted(m for m in sys.modules if m.startswith('skewlab.')))\n"
    )
    src = os.path.dirname(os.path.dirname(skewlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", probe, command, "--target", t, "--source", s, *args,
         "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    rc, *loaded = done.stdout.split()
    assert rc == "0"
    assert "skewlab.systems" in loaded
    assert not {"skewlab." + m for m in absent} & set(loaded), loaded


def test_rect_arguments_parse(marker_pair, tmp_path):
    t, s = marker_pair
    out = tmp_path / "r.json"
    rc = run_command(
        ["improve", "--target", t, "--source", s,
         "--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10",
         "--epsilon", "2/5",
         "--rect-base", ",".join(str(x) for x in range(48)),
         "--rect-group", "0", "--out", str(out)]
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# malformed arguments: exit 1 with a JSON body, never a traceback

STEP = ["--n", "4", "--delta", "3/10", "--n1", "8", "--delta1", "3/10", "--epsilon", "2/5"]


def _rejected(argv, tmp_path):
    out = tmp_path / "err.json"
    rc = run_command(argv + ["--out", str(out)])
    assert rc == 1
    return json.loads(out.read_text())


@pytest.fixture
def z4_pair(tmp_path):
    labels = [1 if x == 127 else 0 for x in range(128)]
    group = {"type": "cyclic", "order": 4}
    t = write_system(tmp_path / "t4.json", 128, labels, group, [1 if x == 0 else 0 for x in range(128)])
    s = write_system(tmp_path / "s4.json", 128, labels, group, [1 if x == 64 else 0 for x in range(128)])
    return t, s


@pytest.mark.parametrize("n", ["0", "-3"])
def test_metrics_rejects_nonpositive_name_length(marker_pair, tmp_path, n):
    t, s = marker_pair
    payload = _rejected(["metrics", "--target", t, "--source", s, "--n", n], tmp_path)
    assert payload["error"] == "ValidationError"
    assert "name length" in payload["detail"]


@pytest.mark.parametrize("flag", ["--n", "--n1"])
def test_improve_rejects_zero_block_length(marker_pair, tmp_path, flag):
    t, s = marker_pair
    step = list(STEP)
    step[step.index(flag) + 1] = "0"
    payload = _rejected(["improve", "--target", t, "--source", s, *step], tmp_path)
    assert payload["error"] == "ValidationError"
    assert "block length" in payload["detail"]


def test_rect_base_not_an_integer(marker_pair, tmp_path):
    t, s = marker_pair
    payload = _rejected(
        ["improve", "--target", t, "--source", s, *STEP, "--rect-base", "x"], tmp_path
    )
    assert payload["error"] == "ParseError"
    assert "--rect-base" in payload["detail"]


def test_epsilons_not_fractions(marker_pair, tmp_path):
    t, s = marker_pair
    for entry in ("abc", "1e-100000000"):
        payload = _rejected(
            ["iso", "--target", t, "--source", s, *STEP, "--budget", "2",
             "--epsilons", "1/10," + entry],
            tmp_path,
        )
        assert payload == {"error": "ParseError", "detail": "--epsilons: cannot read %r" % entry}


def test_rect_base_outside_the_base(z4_pair, tmp_path):
    t, s = z4_pair
    payload = _rejected(
        ["improve", "--target", t, "--source", s, *STEP, "--rect-base", "999"], tmp_path
    )
    assert payload["error"] == "ParseError"
    assert "[0, 128)" in payload["detail"]


def test_rect_group_outside_the_group(z4_pair, tmp_path):
    t, s = z4_pair
    payload = _rejected(
        ["improve", "--target", t, "--source", s, *STEP, "--rect-group", "9"], tmp_path
    )
    assert payload["error"] == "ParseError"
    assert "[0, 4)" in payload["detail"]


@pytest.fixture
def z2_pair(tmp_path):
    labels = [1 if x == 47 else 0 for x in range(48)]
    group = {"type": "cyclic", "order": 2}
    t = write_system(tmp_path / "t2.json", 48, labels, group, [1 if x == 0 else 0 for x in range(48)])
    s = write_system(tmp_path / "s2.json", 48, labels, group, [1 if x == 24 else 0 for x in range(48)])
    return t, s


@pytest.mark.parametrize(
    "override, name",
    [
        (["--epsilon", "7"], "epsilon"),
        (["--epsilon", "1"], "epsilon"),
        (["--delta1", "7"], "delta1"),
        (["--delta1", "-1"], "delta1"),
        (["--delta", "0"], "delta"),
        (["--delta", "5", "--delta1", "-1", "--epsilon", "0"], "delta"),
    ],
)
def test_improve_rejects_tolerance_outside_unit_interval(z2_pair, tmp_path, override, name):
    t, s = z2_pair
    payload = _rejected(["improve", "--target", t, "--source", s, *STEP, *override], tmp_path)
    assert payload["error"] == "ValidationError"
    assert payload["detail"] == "%s must sit in (0,1)" % name


@pytest.mark.parametrize("zeta", ["-1", "5"])
def test_seed_orbit_rejects_zeta_outside_unit_interval(z2_pair, tmp_path, zeta):
    t, s = z2_pair
    payload = _rejected(
        ["seed-orbit", "--target", t, "--source", s, "--nlen", "48", "--zeta", zeta, "--n", "4"],
        tmp_path,
    )
    assert payload["error"] == "ValidationError"
    assert payload["detail"] == "zeta must sit in (0,1)"


@pytest.mark.parametrize("budget, zeta", [("0", "5"), ("1", "5"), ("1", "0")])
def test_iso_rejects_copy_zeta_outside_unit_interval(z2_pair, tmp_path, budget, zeta):
    # checked before bootstrap, also when no iteration would copy a partition
    t, s = z2_pair
    payload = _rejected(
        ["iso", "--target", t, "--source", s, *STEP, "--budget", budget, "--copy-zeta", zeta],
        tmp_path,
    )
    assert payload["error"] == "ValidationError"
    assert payload["detail"] == "copy_zeta must sit in (0,1)"


# ---------------------------------------------------------------------------
# usage errors: exit 1 with a JSON body on standard output


def _run_captured(argv):
    """(exit code, standard output) of one run_command call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run_command(argv)
    return rc, buf.getvalue()


@pytest.mark.parametrize(
    "argv, detail",
    [
        ([], "skewlab: the following arguments are required: command"),
        (["bogus"], "skewlab: argument command: invalid choice: 'bogus'"),
        (["metrics", "--n", "x"], "skewlab metrics: argument --n: invalid int value: 'x'"),
        (["metrics", "--target", "t", "--source", "s"], "skewlab metrics: the following arguments"),
        (["iso", "--copy-zeta", "1/0"], "skewlab iso: argument --copy-zeta: '1/0' is not a fraction"),
    ],
)
def test_usage_error_exits_one_with_json(argv, detail):
    rc, text = _run_captured(argv)
    assert rc == 1
    payload = json.loads(text)
    assert payload["error"] == "ParseError"
    assert payload["detail"].startswith(detail)


def test_copy_zeta_is_an_iso_flag_only(marker_pair):
    # factor and iso share one parser definition; only iso takes --copy-zeta
    t, s = marker_pair
    argv = ["--target", t, "--source", s, *STEP_ARGS, "--budget", "0", "--copy-zeta", "1/10"]
    rc, text = _run_captured(["factor", *argv])
    assert rc == 1
    payload = json.loads(text)
    assert payload["error"] == "ParseError"
    assert payload["detail"] == "skewlab: unrecognized arguments: --copy-zeta 1/10"
    rc, text = _run_captured(["iso", *argv])
    assert rc == 0
    assert json.loads(text)["command"] == "iso"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        run_command(["--help"])
    assert stop.value.code == 0
    assert "usage: skewlab" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# property: every argv ends in exit 0, 1 or 2 with a JSON object


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Tiny systems (N <= 16) and broken inputs for the argv property."""
    root = tmp_path_factory.mktemp("argv")

    def marker(name, size, group, flip):
        return write_system(
            root / name, size, [1 if x == size - 1 else 0 for x in range(size)], group,
            [1 if x == flip else 0 for x in range(size)],
        )

    z2 = {"type": "cyclic", "order": 2}
    for name, text in UNREADABLE.items():
        (root / (name + ".json")).write_bytes(text)
    good = [
        marker("t16.json", 16, z2, 0),
        marker("s16.json", 16, z2, 8),
        marker("s8.json", 8, z2, 3),
        marker("z3.json", 12, {"type": "cyclic", "order": 3}, 0),
        marker("triv.json", 16, {"type": "trivial"}, -1),
    ]
    bad = [
        marker("flat.json", 16, z2, -1),
        write_system(root / "big.json", 2, [0, 0], {"type": "cyclic", "order": 999}, [0, 0]),
        *(str(root / (name + ".json")) for name in UNREADABLE),
        str(root / "missing.json"),
    ]
    return good, bad


# (working values on the 16-point pair, broken values) per flag
BAD_INTS = ["0", "-1", "99", "x", ""]
BAD_FRACTIONS = ["0", "1", "7", "-1/2", "abc", "1/0", "1e-100000000", "0.5"]
BAD_LISTS = ["x", "99", "-1", ","]
FLAG_VALUES = {
    "--n": (["1", "2"], BAD_INTS),
    "--n1": (["2", "4", "8"], BAD_INTS),
    "--budget": (["0", "1", "2"], BAD_INTS),
    "--nlen": (["4", "8", "16"], BAD_INTS),
    "--seed": (["0", "7"], ["x"]),
    "--delta": (["3/10", "2/5", "1/2"], BAD_FRACTIONS),
    "--delta1": (["3/10", "2/5", "1/2"], BAD_FRACTIONS),
    "--epsilon": (["2/5", "1/2"], BAD_FRACTIONS),
    "--zeta": (["2/5", "1/2"], BAD_FRACTIONS),
    "--copy-zeta": (["1/10", "1/2"], BAD_FRACTIONS),
    "--epsilons": (["1/4,1/8", "1/4"], ["x", "0", "1/4,", "1/4,1e-100000000"]),
    "--rect-base": (["0,2,4,6", "1,3,5"], BAD_LISTS),
    "--rect-group": (["0", "0,1"], BAD_LISTS),
}
STEP_FLAGS = ["--n", "--delta", "--n1", "--delta1", "--epsilon", "--rect-base", "--rect-group"]
COMMAND_FLAGS = {
    "metrics": ["--n"],
    "improve": STEP_FLAGS,
    "factor": STEP_FLAGS + ["--budget", "--epsilons"],
    "iso": STEP_FLAGS + ["--budget", "--epsilons", "--copy-zeta"],
    "seed-orbit": ["--nlen", "--zeta", "--n"],
}


@st.composite
def argvs(draw, files):
    """A working command line with up to three things broken in it."""
    good, bad = files
    unwritable = os.path.join(os.path.dirname(good[0]), "missing", "r.json")
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = {"--target": good[0], "--source": draw(st.sampled_from(good))}
    for flag in COMMAND_FLAGS[command] + ["--seed"]:
        argv[flag] = draw(st.sampled_from(FLAG_VALUES[flag][0]))
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(argv)))
        how = draw(st.sampled_from(["value", "drop", "file", "noise"]))
        if how == "value" and flag in FLAG_VALUES:
            argv[flag] = draw(st.sampled_from(FLAG_VALUES[flag][1]))
        elif how == "drop":
            argv.pop(flag)
        elif how == "file":
            argv[draw(st.sampled_from(["--target", "--source"]))] = draw(st.sampled_from(bad))
        else:
            extra += draw(st.sampled_from(
                [["--strict-schedule"], ["--bogus"], ["stray"], ["--n"], ["--out", unwritable]]
            ))
    command = draw(st.sampled_from([command] * 9 + ["nope"]))
    return [command] + [v for pair in argv.items() for v in pair] + extra


@given(st.data())
def test_any_argv_exits_with_a_json_object(argv_files, data):
    argv = data.draw(argvs(argv_files))
    rc, text = _run_captured(argv)
    assert rc in (0, 1, 2)
    payload = json.loads(text)
    assert isinstance(payload, dict)
    # a report that cannot be written is an error on stdout, whatever the run did
    if "--out" in argv:
        assert rc == 1 and payload["error"] == "ParseError", payload


@st.composite
def fuzz_systems(draw):
    """Two systems of 8-48 points on one Z/1-Z/5, labelled by one marker or at
    random, with random skews: ergodic or not."""
    order = draw(st.integers(1, 5))

    def system():
        size = draw(st.integers(8, 48))
        if draw(st.booleans()):
            labels = [1 if x == size - 1 else 0 for x in range(size)]
        else:
            labels = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        skew = draw(st.lists(st.integers(0, order - 1), min_size=size, max_size=size))
        return {"size": size, "labels": labels, "group": {"type": "cyclic", "order": order}, "skew": skew}

    return system(), system()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


SKEWLAB_ERRORS = {
    cls.__name__ for cls in vars(skewlab.errors).values()
    if isinstance(cls, type) and issubclass(cls, skewlab.SkewlabError)
}


@settings(max_examples=40, deadline=timedelta(seconds=3))
@given(fuzz_systems(), st.data())
def test_every_command_ends_on_random_small_systems(fuzz_dir, pair, data):
    # each of the five commands with small flags: an exit code, one JSON object, and
    # on failure a SkewlabError by name, never a traceback or a hang
    paths = []
    for role, system in zip("ts", pair):
        path = fuzz_dir / ("%s.json" % role)
        path.write_text(json.dumps(system))
        paths.append(str(path))
    n = data.draw(st.integers(1, 4))
    tolerance = st.sampled_from(["1/5", "1/2", "9/10"])
    step = [
        "--n", str(n), "--delta", data.draw(tolerance), "--n1", str(n * data.draw(st.integers(1, 3))),
        "--delta1", data.draw(tolerance), "--epsilon", data.draw(tolerance),
    ]
    loop = ["--budget", str(data.draw(st.integers(0, 2))), "--epsilons", "1/4,1/8"]
    nlen = str(data.draw(st.integers(n, 48)))
    commands = [
        ["metrics", "--n", str(n)],
        ["improve", *step],
        ["factor", *step, *loop],
        ["iso", *step, *loop, "--copy-zeta", "1/10"],
        ["seed-orbit", "--nlen", nlen, "--zeta", data.draw(tolerance), "--n", str(n)],
    ]
    for argv in commands:
        rc, text = _run_captured([argv[0], "--target", paths[0], "--source", paths[1], *argv[1:]])
        payload = json.loads(text)
        assert isinstance(payload, dict) and rc in (0, 1, 2)
        if rc:
            assert payload["error"] in SKEWLAB_ERRORS, payload
        else:
            assert payload["command"] == argv[0]
