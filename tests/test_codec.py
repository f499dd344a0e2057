import re
from dataclasses import dataclass, field

import pytest

from fdkg.codec import decode, encode
from fdkg.errors import ConfigError


@dataclass(frozen=True)
class Inner:
    rate: float
    count: int = 3


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    pair: tuple[int, int]
    items: list[Inner] = field(default_factory=list)
    flag: bool = False
    note: str | None = None
    value: float | None = 1.0


def test_encode_layout_and_none_omission():
    obj = Outer("a", Inner(0.5), (1, 2), [Inner(1.0, 4)], value=None)
    assert encode(obj) == {
        "name": "a",
        "inner": {"rate": 0.5, "count": 3},
        "pair": [1, 2],
        "items": [{"rate": 1.0, "count": 4}],
        "flag": False,
        "value": None,  # its default is not None, so null is written
    }
    assert list(encode(obj)) == ["name", "inner", "pair", "items", "flag", "value"]
    assert decode(Outer, encode(obj)) == obj
    assert encode(Outer("a", Inner(0.5), (1, 2), note="n"))["note"] == "n"


def test_decode_defaults_and_int_to_float():
    obj = decode(Outer, {"name": "a", "inner": {"rate": 2}, "pair": [1, 2]})
    assert obj == Outer("a", Inner(2.0), (1, 2))
    assert type(obj.inner.rate) is float and type(obj.pair) is tuple


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"inner": {"rate": 1.0}, "pair": [1, 2]}, "missing fields ['name']"),
        ({"name": "a", "inner": {"rate": 1.0}, "pair": [1, 2], "nam": "b"}, "unknown fields ['nam']"),
        ({"name": "a", "inner": {"rate": 1.0, "count": 1.5}, "pair": [1, 2]}, "x.inner.count"),
        ({"name": "a", "inner": {"rate": 1.0, "count": True}, "pair": [1, 2]}, "x.inner.count"),
        ({"name": "a", "inner": {"rate": True}, "pair": [1, 2]}, "x.inner.rate"),
        ({"name": "a", "inner": {"rate": 1.0}, "pair": [1, 2], "flag": "false"}, "x.flag"),
        ({"name": "a", "inner": {"rate": 1.0}, "pair": [1, 2, 3]}, "x.pair"),
        ({"name": "a", "inner": {"rate": 1.0}, "pair": [1, "2"]}, "x.pair[1]"),
        ({"name": "a", "inner": [], "pair": [1, 2]}, "x.inner"),
        ({"name": "a", "inner": {"rate": 1.0}, "pair": [1, 2], "items": {}}, "x.items"),
        ({"name": None, "inner": {"rate": 1.0}, "pair": [1, 2]}, "x.name"),
        ({"name": "a", "inner": {"rate": float("nan")}, "pair": [1, 2]}, "x.inner.rate: expected float, got nan"),
        ({"name": "a", "inner": {"rate": 1.0}, "pair": [1, 2], "value": float("nan")}, "x.value: expected float, got nan"),
    ],
)
def test_decode_rejects(doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        decode(Outer, doc, "x")
