import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegame.blockmodel import StrategyPair
from edgegame.checks import integer, probability
from edgegame.dynamics import ProtocolConfig, SemiMarkovChain
from edgegame.opinion import OpinionConfig


@pytest.mark.parametrize(
    "call, ok",
    [
        (lambda: integer("k", 3, 1), True),
        (lambda: integer("k", -7), True),
        (lambda: integer("k", 0, 1), False),
        (lambda: integer("k", True, 0), False),
        (lambda: integer("k", 3.0, 1), False),
        (lambda: probability("p", 0.0), True),
        (lambda: probability("p", 1), True),
        (lambda: probability("p", 0.0, positive=True), False),
        (lambda: probability("p", 1e-300, positive=True), True),
        (lambda: probability("p", math.nan), False),
        (lambda: probability("p", True), False),
        (lambda: probability("p", "0.5"), False),
    ],
)
def test_checks_accept_exact_types_in_range(call, ok):
    if ok:
        call()
    else:
        with pytest.raises(ValueError, match=r"^[kp] must be"):
            call()


# A valid value of every field; each case replaces one of them.
VALID = {
    StrategyPair: {"p_r": 0.5, "p_b": 0.5},
    ProtocolConfig: {"n_per_community": 3, "horizon": 2, "acceptance": 0.8, "seed": 0},
    OpinionConfig: {f.name: f.default for f in fields(OpinionConfig)},
    SemiMarkovChain: {
        "states": [0.6, 0.9],
        "transition": [[0.5, 0.5], [0.5, 0.5]],
        "holding_time": 2,
        "initial_state": 0,
    },
}

ANY_VALUE = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1e-300, "0.5", "1"]),
)


@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls, valid in VALID.items() for name in valid]
)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(value=ANY_VALUE)
def test_a_config_field_holds_its_type_or_is_a_value_error_naming_it(cls, name, value):
    try:
        built = cls(**{**VALID[cls], name: value})
    except ValueError as exc:
        assert str(exc).split(" ", 1)[0] == name, str(exc)
        return
    if (cls, name) == (SemiMarkovChain, "transition"):
        # None is the uniform matrix; no other value drawn here is a matrix
        assert value is None and built.transition.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        return
    # kept as given, never converted: an int field holds an int, a bool
    # field a bool, and a real field a real number that is not a bool
    assert getattr(built, name) is value
    kind = type(VALID[cls][name])
    if value is None:
        assert (cls, name) == (ProtocolConfig, "acceptance")  # None runs P1
    elif kind is float:
        assert type(value) in (int, float)
    else:
        assert type(value) is kind
