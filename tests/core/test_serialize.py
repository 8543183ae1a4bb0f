"""The compiled canonical encoder against the walker it replaced.

``oracle`` below is the original generic serializer, kept verbatim as
the reference: an ``isinstance`` chain per value, ``dataclasses.fields``
per instance, then ``json.dumps(sort_keys=True)``.  Hypothesis drives
both over nested values built from every type the encoder dispatches
on, and the two texts must agree byte for byte.  Together with the
committed parity goldens this is the serializer's byte contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import threading
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import canonical_json, report_digest, to_jsonable


# ---------------------------------------------------------------------------
# the oracle: the pre-compilation serializer
# ---------------------------------------------------------------------------
def _oracle_key(key: Any) -> str:
    if isinstance(key, Enum):
        key = key.value
    if isinstance(key, str):
        return key
    if isinstance(key, bool):
        return "true" if key else "false"
    if isinstance(key, (int, np.integer)):
        return str(int(key))
    if isinstance(key, (float, np.floating)):
        return repr(float(key))
    if key is None:
        return "null"
    raise TypeError(f"unencodable dict key {key!r} ({type(key).__name__})")


def oracle(obj: Any) -> Any:
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value:
            return "__nan__"
        if value in (float("inf"), float("-inf")):
            return "__inf__" if value > 0 else "__-inf__"
        return value
    if isinstance(obj, Enum):
        return oracle(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: oracle(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if not (f.metadata.get("omit_empty")
                        and not getattr(obj, f.name))}
    if isinstance(obj, dict):
        return {_oracle_key(k): oracle(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [oracle(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [oracle(x) for x in obj]
        if isinstance(obj, (set, frozenset)):
            items.sort(key=lambda x: json.dumps(x, sort_keys=True))
        return items
    raise TypeError(f"unencodable object {obj!r} ({type(obj).__name__})")


def oracle_json(obj: Any) -> str:
    return json.dumps(oracle(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# ---------------------------------------------------------------------------
# report-shaped types
# ---------------------------------------------------------------------------
class Colour(Enum):
    RED = "red"
    GREEN = 2
    BLUE = (1.5, "b")


class Tier(str, Enum):
    HOT = "hot"
    COLD = "cold"


class Level(IntEnum):
    LOW = 1
    HIGH = 7


@dataclass(frozen=True, slots=True)
class Point:
    """Hashable, so sets of them (sets of dicts once encoded) exist."""

    y: float
    x: int
    tag: str = ""


@dataclass
class Node:
    zeta: Any
    alpha: Any = None
    children: list = field(default_factory=list)
    extra: dict = field(default_factory=dict,
                        metadata={"omit_empty": True})


@dataclass
class Single:
    only: Any


@dataclass
class Empty:
    pass


ENUMS = list(Colour) + list(Tier) + list(Level)
#: enum members whose value is itself a valid dict key
KEY_ENUMS = [m for m in ENUMS if m is not Colour.BLUE]

text = st.text(alphabet=st.characters(), max_size=12) | st.sampled_from(
    ["", "é", "日本", "\x00\x1f\x7f", " ", "tab\tnl\n", '"\\', "😀"])
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e308])
ints = st.integers() | st.sampled_from([2**64, -(2**70), 2**200])
numpy_scalars = st.one_of(
    ints.filter(lambda i: -(2**63) <= i < 2**63).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
)
numpy_arrays = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=5).map(np.array),
    st.lists(floats, max_size=5).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2),
             min_size=1, max_size=3).map(np.array),
)
leaves = st.one_of(st.none(), st.booleans(), ints, floats, text,
                   st.sampled_from(ENUMS), numpy_scalars, numpy_arrays)
keys = st.one_of(text, st.booleans(), st.none(), ints, floats,
                 st.sampled_from(KEY_ENUMS), st.integers(-3, 3).map(str))
points = st.builds(Point, y=floats, x=st.integers(-5, 5), tag=text)


def _aliased(value: Any) -> list:
    shared = Node(zeta=value, extra={"k": value})
    return [shared, {"again": shared}, (shared,)]


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.frozensets(st.one_of(points, st.integers(-3, 3), text),
                      max_size=4),
        st.sets(points, max_size=4),
        st.builds(Node, zeta=children, alpha=children,
                  children=st.lists(children, max_size=3),
                  extra=st.dictionaries(text, children, max_size=2)),
        st.builds(Single, only=children),
        st.just(Empty()),
        points,
        children.map(_aliased),
    )


values = st.recursive(leaves, _containers, max_leaves=25)


class TestAgainstOracle:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_canonical_json_matches_oracle(self, value):
        assert canonical_json(value) == oracle_json(value)

    @given(values)
    @settings(max_examples=150, deadline=None)
    def test_to_jsonable_matches_oracle(self, value):
        tree = to_jsonable(value)
        assert json.dumps(tree, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) == oracle_json(value)
        # the tree keeps the oracle's key order too (dataclass fields in
        # declaration order, dict keys in insertion order)
        assert json.dumps(tree) == json.dumps(oracle(value))

    @pytest.mark.parametrize("value", [
        -0.0, float("nan"), float("inf"), float("-inf"), 2**200, -(2**70),
        np.float32(0.1), np.int64(-5), np.uint8(200), np.float64("nan"),
        "é\x00 😀", Colour.BLUE, Tier.HOT, Level.HIGH,
        {True: 1, None: 2, 1.5: 3, Colour.RED: 4, Tier.COLD: 5,
         Level.LOW: 6, float("nan"): 7, np.int64(9): 8},
        {1: "a", "1": "b"}, {"1": "a", 1: "b", True: "c", "true": "d"},
        {Point(1.0, 2), Point(-0.0, 1), Point(float("nan"), 3)},
        # a set's repr follows string hashing, which varies per process;
        # pin the id so the case keeps one name across runs
        pytest.param(frozenset({"b", "a", 3, (1, 2)}),
                     id="frozenset({3, (1, 2), 'a', 'b'})"),
        np.array([[1.0, float("nan")], [float("-inf"), -0.0]]),
        np.array(["x", "yz"]), np.array([], dtype=float),
        Node(zeta=1), Node(zeta=1, extra={"x": 0}), Single(Empty()),
    ], ids=repr)
    def test_edge_cases(self, value):
        assert canonical_json(value) == oracle_json(value)

    def test_key_collision_keeps_the_last_value(self):
        assert canonical_json({1: "a", "1": "b"}) == '{"1":"b"}'
        assert canonical_json({"1": "a", 1: "b"}) == '{"1":"b"}'


class TestUnencodable:
    @pytest.mark.parametrize("value", [
        object(), np.bool_(True), Node, Colour, b"bytes", 1j,
        [1, object()], {"k": np.bool_(False)}, Node(zeta=object()),
        {object(): 1}, {(1, 2): "tuple key"}, {Colour.BLUE: 1},
        # an overwritten value is still encoded, so still refused
        {1: object(), "1": 2},
    ], ids=repr)
    def test_raises_type_error_like_the_oracle(self, value):
        with pytest.raises(TypeError):
            oracle_json(value)
        with pytest.raises(TypeError):
            canonical_json(value)
        with pytest.raises(TypeError):
            to_jsonable(value)


class TestAliasing:
    def test_shared_instance_is_spliced_twice(self):
        shared = Node(zeta="shared", children=[1, 2])
        text = canonical_json({"a": shared, "b": [shared]})
        one = canonical_json(shared)
        assert text == '{"a":%s,"b":[%s]}' % (one, one)
        assert text == oracle_json({"a": shared, "b": [shared]})

    def test_to_jsonable_has_no_shared_subtrees(self):
        shared = Node(zeta="shared", children=[[1]], extra={"k": [2]})
        tree = to_jsonable([shared, {"again": shared}])
        first, second = tree[0], tree[1]["again"]
        assert first == second and first is not second
        first["children"][0].append(99)
        first["extra"]["k"].clear()
        first["zeta"] = "patched"
        assert second == {"zeta": "shared", "alpha": None,
                          "children": [[1]], "extra": {"k": [2]}}

    def test_memo_does_not_outlive_the_call(self):
        node = Node(zeta=[1])
        before = canonical_json(node)
        node.zeta.append(2)
        assert canonical_json(node) != before
        assert canonical_json(node) == oracle_json(node)

    def test_digest_is_sha256_of_the_text(self):
        value = {"n": Node(zeta=Colour.GREEN)}
        assert report_digest(value) == hashlib.sha256(
            oracle_json(value).encode("utf-8")).hexdigest()


class TestFirstSightRaces:
    def test_threads_learning_the_same_new_types_agree(self):
        """The per-type tables are filled on first sight by whichever
        thread gets there; racing installs must be harmless."""
        fresh = [dataclasses.make_dataclass(f"Fresh{i}", ["b", "a"])
                 for i in range(20)]
        value = [cls(b=[i, Tier.COLD], a={Level.LOW: cls(b=i, a=None)})
                 for i, cls in enumerate(fresh)]
        want = oracle_json(value)
        results: list = []

        def encode():
            results.append((canonical_json(value), to_jsonable(value)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=encode) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for text, tree in results:
            assert text == want
            assert json.dumps(tree) == json.dumps(oracle(value))
