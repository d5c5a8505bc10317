"""The record types: immutability, equality, hashing, the checks a result
row runs when it is copied, and a theorem report's JSON."""

import pytest

import rcgame.verify as verify
from rcgame.engine import (
    Step,
    Strategy,
    Transcript,
    WinAnalysis,
    solve_cwrc,
)
from rcgame.errors import InvalidParam, InvariantViolation
from rcgame.generators import FamilySpec, basic_family
from rcgame.ioformats import ResultRecord


def _stay(cop, robber):
    return cop


def _place():
    return 0


# per record type: a field, a build, and a build that differs in one field
VALUE_RECORDS = [
    ("rc", lambda: ResultRecord("c6", 6, 6, 3, 3, 6, 2, 1.5),
     lambda: ResultRecord("c6", 6, 6, 3, 3, 6, 2, 2.5)),
    ("params", lambda: FamilySpec("cycle", (5,), 3),
     lambda: FamilySpec("cycle", (5,), 4)),
    ("move", lambda: Strategy("cop", _place, _stay, "still cop", True),
     lambda: Strategy("cop", _place, _stay, "still cop", False)),
    ("mapping", lambda: verify.Retraction((0, 1, 0)),
     lambda: verify.Retraction((0, 1, 1))),
]


@pytest.mark.parametrize("field,build,other", VALUE_RECORDS)
def test_value_records_are_frozen_equal_by_field_and_hashable(field, build, other):
    rec = build()
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == build() and hash(rec) == hash(build())
    assert rec != other()
    assert len({rec, build(), other()}) == 2


def test_result_record_copy_is_checked():
    # a copy with a field changed is built, and checked, like a new record;
    # test_ioformats checks a new record's id and rc
    rec = ResultRecord("c6", 6, 6, 3, 3, 6, 2)
    assert (rec.lb, rec.ub, rec.ms) == (2, 2, 0.0)
    assert rec._replace(ms=4.0) == ResultRecord("c6", 6, 6, 3, 3, 6, 2, 4.0)
    with pytest.raises(InvariantViolation):
        rec._replace(rc=3)
    with pytest.raises(InvalidParam):
        rec._replace(instance_id="c,6")


def test_win_analysis_compares_by_identity_and_has_no_dict():
    g = basic_family("cycle", 6)
    a, b = solve_cwrc(g, 2), solve_cwrc(g, 2)
    assert a == a and a != b
    assert (a.columns, a.rounds) == (b.columns, b.rounds)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a).startswith("<rcgame.engine.WinAnalysis object at ")
    assert len({a, b}) == 2


def test_transcript_fields_and_steps():
    steps = [Step("cop", 0, 1, 2), Step("robber", 3, 4, 3)]
    t = Transcript(0, 3, 3, steps, "survived", 2)
    assert t.cycle_start is None and not t.captured
    assert list(t.all_steps()) == steps
    closed = Transcript(0, 3, 3, steps, "survived", 5, 1)
    assert [s.mover for s in closed.all_steps()] == ["cop", "robber", "robber",
                                                      "robber", "robber"]
    assert Transcript(0, 1, 1, steps[:1], "captured", 1).captured


def test_theorem_report_json_bytes(monkeypatch):
    # the exact bytes a passing and a failing report print: the fields in
    # order, and a failing one's counterexample the witness then the
    # measured values (a negative capture number fails the check)
    c4 = basic_family("cycle", 4)
    fold = verify.Retraction((0, 1, 0, 1))
    head = ('{"theorem": "retract-monotonicity", "inputs": {"n": 4, "m": 4, '
            '"target_size": 2}, "predicted": "rc(retract) <= rc(graph)", ')
    assert verify.check_retract_monotonicity(c4, fold).to_json() == head + (
        '"measured": {"rc_graph": 1, "rc_retract": 0}, "passed": true, '
        '"counterexample": null}')
    monkeypatch.setattr(verify, "radius_capture_number", lambda g: -g.n)
    assert verify.check_retract_monotonicity(c4, fold).to_json() == head + (
        '"measured": {"rc_graph": -4, "rc_retract": -2}, "passed": false, '
        '"counterexample": {"edges": [[0, 1], [0, 3], [1, 2], [2, 3]], '
        '"target": [0, 1], "mapping": [0, 1, 0, 1], "rc_graph": -4, '
        '"rc_retract": -2}}')
