"""The decision-log encoder against its canonical-JSON oracle.

:func:`decisions_to_json` builds the log's JSON from per-record
fragments (names joined raw when they need no escape) and
:func:`decisions_digest` streams the same fragments into sha256.  Both
must equal the oracle, ``canonical_json([decision_to_dict(r) ...],
sort_keys=True)``, on any log: names that need escapes, non-finite
floats, multi-key costs, empty lists, and a ``deque`` (the bounded
decision log) as input.
"""

import hashlib
import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbiter import DecisionRecord
from repro.core.strategies import Action
from repro.service.protocol import (
    canonical_json, decision_to_dict, decisions_digest, decisions_to_json,
)

#: Names that need a JSON escape (or sit at its edge), plus plain ones.
_AWKWARD = ['"', "\\", "a\"b", "x\\y", "\x00", "tab\there", "\x1f", "\x7f",
            "~", " ", "é", "アプリ", "app🚀", "", "app001", "w-07"]

names = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=12))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324]),
    st.integers(min_value=-10 ** 20, max_value=10 ** 20))
records = st.builds(
    DecisionRecord,
    time=floats,
    app=names,
    action=st.sampled_from(list(Action)),
    active=st.lists(names, max_size=6),
    waiting=st.lists(names, max_size=20),
    costs=st.dictionaries(names, floats, max_size=4),
)


def _oracle(log) -> str:
    return canonical_json([decision_to_dict(r) for r in log], sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(records, max_size=8), st.booleans())
def test_encoder_equals_canonical_oracle(log, as_deque):
    source = deque(log, maxlen=len(log) + 1) if as_deque else log
    expected = _oracle(log)
    assert decisions_to_json(source) == expected
    assert decisions_digest(source) == hashlib.sha256(
        expected.encode("utf-8")).hexdigest()


def test_empty_log_and_plain_names():
    assert decisions_to_json([]) == "[]"
    assert decisions_digest(deque()) == hashlib.sha256(b"[]").hexdigest()
    record = DecisionRecord(time=1.5, app="w1", action=Action.WAIT,
                            active=["w0"], waiting=["w2", "w3"],
                            costs={"wait": 0.25, "go": math.inf})
    assert decisions_to_json([record, record]) == _oracle([record, record])


def test_each_awkward_name_in_every_position():
    for name in _AWKWARD:
        record = DecisionRecord(time=0.5, app=name, action=Action.DELAY,
                                active=[name], waiting=["ok", name, "ok"],
                                costs={name: 1.0})
        assert decisions_to_json([record]) == _oracle([record]), repr(name)


def test_non_string_names_take_the_canonical_encoder():
    record = DecisionRecord(time=2.0, app="w1", action=Action.GO,
                            active=[1, None], waiting=["ok", 2.5], costs={})
    assert decisions_to_json([record]) == _oracle([record])
