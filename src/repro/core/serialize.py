"""Canonical JSON serialization for diagnosis reports.

The parity gate (``tests/core/test_parity_gate.py``) and the windowed
consistency check compare whole :class:`~repro.core.pipeline.DiagnosisReport`
objects by *bytes*: two reports are equal iff their canonical JSON is
identical.  Canonical means:

* dataclasses become ``{field: value}`` objects with sorted keys, so
  equality is insensitive to field order; a field marked
  ``metadata={"omit_empty": True}`` is left out while it holds a falsy
  value;
* enums collapse to their ``.value``;
* numpy scalars/arrays collapse to the matching Python scalars/lists
  (``float`` repr round-trips, so byte-comparison is exact); NaN and
  the infinities become the strings ``"__nan__"``, ``"__inf__"`` and
  ``"__-inf__"``;
* dict keys are stringified (enum keys via ``.value``) and sorted; when
  two keys stringify alike the later value wins;
* sets become lists sorted by each item's ``json.dumps(..., sort_keys=True)``;
* the text is compact (``","``/``":"``) and ASCII-only.

How it is encoded
-----------------
One **dispatch table** maps each concrete type to its handler.  The
handler is resolved once per type, on first sight, by the precedence
of :func:`_kind`: ``None``; ``str``/``bool``; ``int``/``np.integer``;
``float``/``np.floating``; ``Enum``; dataclass instance; ``dict``;
``ndarray``; list/tuple/set.  A type that matches none of them raises
``TypeError`` -- so does a dataclass *class* and ``np.bool_`` -- so a new
report field type must be taught to :func:`_kind` before the parity
gate can vouch for it; it never falls back to a guess.

Each dataclass gets a **plan**, computed once per class: its field
names, the JSON-quoted ``"name":`` keys in sorted order, ``attrgetter``
calls that fetch every value at once, and the ``omit_empty`` flags.
Each enum member is encoded once.  A dataclass shaped like
:class:`~repro.logs.parsing.ParsedRecord` (the evidence records, most of
a report's bytes) gets a **record plan** instead: a fixed sorted key
order, its short repeated strings -- component, daemon, event, attrs
keys and values -- quoted once per call through a quoted-string table
kept in the memo, and cached enum texts; the body is quoted per record,
and a value of any other type takes the generic path, so the bytes and
the ``TypeError`` of an unencodable value are the generic encoder's.

:func:`canonical_json` writes text directly: strings through the C
``json.encoder.encode_basestring_ascii``, floats through
``float.__repr__``.  A per-call **memo** maps ``id(instance)`` to the
encoded text of every dataclass instance seen, so an instance reached
twice -- each ``RootCauseInference.failure`` is a ``DetectedFailure``
that ``report.failures`` already holds -- is encoded once and spliced
twice.  The memo holds a reference to each instance, so no id is reused
within the call, and it is dropped when the call returns.

:func:`to_jsonable` shares the dispatch and the plans but not the memo:
it returns a fresh tree with no shared subtrees, because callers patch
and read it.  Its dataclass objects keep field order.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["to_jsonable", "canonical_json", "report_digest"]

#: concrete type -> text handler of a leaf (no nested values): obj -> str
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {}
#: concrete type -> text handler of a container: (obj, memo) -> str
_NODE_TEXT: dict[type, Callable[[Any, dict], str]] = {}
#: concrete type -> plain-data handler: obj -> fresh JSON-able value
_TREE: dict[type, Callable[[Any], Any]] = {}

_leaf_text = _LEAF_TEXT.get
_node_text = _NODE_TEXT.get
_tree = _TREE.get

_FLOAT_TAGS = {"nan": '"__nan__"', "inf": '"__inf__"', "-inf": '"__-inf__"'}
_BOOL_TEXT = {True: "true", False: "false"}


def _key(key: Any) -> str:
    """A dict key as a canonical string."""
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


def _kind(cls: type) -> Optional[str]:
    """The encoding rule of a concrete type; None when it has none."""
    if cls is type(None):
        return "none"
    if issubclass(cls, str):
        return "str"
    if issubclass(cls, bool):
        return "bool"
    if issubclass(cls, (int, np.integer)):
        return "int"
    if issubclass(cls, (float, np.floating)):
        return "float"
    if issubclass(cls, Enum):
        return "enum"
    if hasattr(cls, "__dataclass_fields__") and not issubclass(cls, type):
        return "dataclass"
    if issubclass(cls, dict):
        return "dict"
    if issubclass(cls, np.ndarray):
        return "ndarray"
    if issubclass(cls, (set, frozenset)):
        return "set"
    if issubclass(cls, (list, tuple)):
        return "seq"
    return None


class _Plan:
    """How one dataclass is encoded, computed once per class.

    Each order gets one ``attrgetter`` that fetches every value in a
    single call: declaration order for the tree, sorted-name order for
    the text (whose keys come pre-quoted).  ``omit``/``omit_sorted`` are
    the ``omit_empty`` flags in those orders, None when no field has one.
    """

    __slots__ = ("names", "get", "omit", "keys", "get_sorted",
                 "omit_sorted")

    def __init__(self, cls: type) -> None:
        fields = dataclasses.fields(cls)
        flags = {f.name: bool(f.metadata.get("omit_empty")) for f in fields}
        self.names = tuple(flags)
        ranked = sorted(flags)
        self.keys = tuple(_quote(name) + ":" for name in ranked)
        self.get = _getter(self.names)
        self.get_sorted = _getter(ranked)
        has_omit = any(flags.values())
        self.omit = tuple(flags.values()) if has_omit else None
        self.omit_sorted = (tuple(flags[name] for name in ranked)
                            if has_omit else None)


def _getter(names) -> Callable[[Any], tuple]:
    """One call returning the named attributes as a tuple."""
    if len(names) == 1:
        fetch = attrgetter(names[0])
        return lambda obj: (fetch(obj),)
    return attrgetter(*names) if names else (lambda obj: ())


def _learn(cls: type) -> bool:
    """Resolve and install the handlers of ``cls``; False if unencodable.

    Threads that meet a new type together may both install it: the
    handlers are pure functions of the type, so the last write is as
    good as the first.
    """
    kind = _kind(cls)
    if kind is None:
        return False
    text, tree = _HANDLERS[kind](cls)
    if kind in _LEAF_KINDS:
        _LEAF_TEXT[cls] = text
    else:
        _NODE_TEXT[cls] = text
    _TREE[cls] = tree
    return True


def _unencodable(obj: Any) -> TypeError:
    return TypeError(
        f"unencodable object {obj!r} ({type(obj).__name__})")


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------
def _same(obj: Any) -> Any:
    return obj


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_TAGS.get(text, text)


def _float_tree(value: Any) -> Any:
    value = float(value)
    if value != value:  # NaN: JSON has no spelling, tag it
        return "__nan__"
    if value in (float("inf"), float("-inf")):
        return "__inf__" if value > 0 else "__-inf__"
    return value


def _int_leaf(cls: type):
    if cls is int:
        return int.__repr__, _same
    return (lambda obj: int.__repr__(int(obj))), int


def _float_leaf(cls: type):
    if cls is float:
        return _float_text, _float_tree
    return (lambda obj: _float_text(float(obj))), _float_tree


def _enum_leaf(cls: type):
    texts: dict[int, tuple] = {}

    def text(member: Enum) -> str:
        # the member rides along so its id stays unique while cached
        hit = texts.get(id(member))
        if hit is None:
            hit = texts[id(member)] = (member, canonical_json(member.value))
        return hit[1]

    return text, lambda member: to_jsonable(member.value)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------
def _text(obj: Any, memo: dict) -> str:
    """The canonical text of any value (generic dispatch)."""
    cls = type(obj)
    leaf = _leaf_text(cls)
    if leaf is not None:
        return leaf(obj)
    node = _node_text(cls)
    if node is not None:
        return node(obj, memo)
    if not _learn(cls):
        raise _unencodable(obj)
    return _text(obj, memo)


def _dataclass_text(plan: _Plan) -> Callable[[Any, dict], str]:
    get, keys, omit = plan.get_sorted, plan.keys, plan.omit_sorted

    def text(obj: Any, memo: dict) -> str:
        hit = memo.get(id(obj))
        if hit is not None:
            return hit[1]
        pairs = zip(keys, get(obj))
        if omit is not None:
            pairs = [pair for pair, skip in zip(pairs, omit)
                     if not (skip and not pair[1])]
        encoded = "{" + ",".join([
            key + (leaf(value) if (leaf := _leaf_text(type(value)))
                   is not None else _text(value, memo))
            for key, value in pairs]) + "}"
        # the instance rides along so its id stays unique for the call
        memo[id(obj)] = (obj, encoded)
        return encoded

    return text


def _dict_text(obj: dict, memo: dict) -> str:
    fields = {}
    for key, value in obj.items():
        leaf = _leaf_text(type(value))
        fields[key if type(key) is str else _key(key)] = (
            leaf(value) if leaf is not None else _text(value, memo))
    return "{" + ",".join([_quote(key) + ":" + fields[key]
                           for key in sorted(fields)]) + "}"


def _seq_text(obj: Any, memo: dict) -> str:
    return "[" + ",".join([
        leaf(item) if (leaf := _leaf_text(type(item))) is not None
        else _text(item, memo) for item in obj]) + "]"


def _set_text(obj: Any, memo: dict) -> str:
    # sorting by the canonical text orders items exactly as sorting by
    # ``json.dumps(item, sort_keys=True)``: that spelling only adds a
    # space after each structural "," and ":", and two texts first
    # differ at the same character either way
    return "[" + ",".join(sorted([_text(item, memo) for item in obj])) + "]"


def _dataclass_tree(plan: _Plan) -> Callable[[Any], dict]:
    names, get, omit = plan.names, plan.get, plan.omit

    def tree(obj: Any) -> dict:
        out = {}
        for i, value in enumerate(get(obj)):
            if omit is not None and omit[i] and not value:
                continue
            out[names[i]] = to_jsonable(value)
        return out

    return tree


def _dict_tree(obj: dict) -> dict:
    return {_key(key): to_jsonable(value) for key, value in obj.items()}


def _seq_tree(obj: Any) -> list:
    return [to_jsonable(item) for item in obj]


def _set_tree(obj: Any) -> list:
    return sorted([to_jsonable(item) for item in obj], key=canonical_json)


#: the fields of a :class:`~repro.logs.parsing.ParsedRecord`-shaped
#: dataclass, which :func:`_record_text` encodes by a fixed plan
_RECORD_FIELDS = ("attrs", "body", "component", "daemon", "event",
                  "severity", "source", "time")
#: memo keys of the per-call tables (never an ``id``): a string -> its
#: quoted text, and an attrs dict's keys in insertion order -> its
#: ``(key, '"key":')`` pairs in sorted order (None: a key is not a str)
_QUOTED = "quoted"
_SHAPES = "shapes"


def _name_text(value: Any, quoted: dict, memo: dict) -> str:
    """A short repeated string quoted once per call; others generically."""
    if type(value) is str:
        hit = quoted.get(value)
        if hit is None:
            hit = quoted[value] = _quote(value)
        return hit
    return _text(value, memo)


def _attrs_text(attrs: dict, quoted: dict, shapes: dict, memo: dict) -> str:
    """A record's attrs dict.  Its key set is sorted and quoted once per
    call; str values go through ``quoted``; a dict with a key that is
    not a str goes the generic way."""
    shape = tuple(attrs)
    keys = shapes.get(shape, False)
    if keys is False:
        keys = shapes[shape] = (
            tuple((key, _quote(key) + ":") for key in sorted(shape))
            if all(type(key) is str for key in shape) else None)
    if keys is None:
        return _dict_text(attrs, memo)
    parts = []
    for key, key_text in keys:
        value = attrs[key]
        if type(value) is str:
            value_text = quoted.get(value)
            if value_text is None:
                value_text = quoted[value] = _quote(value)
        else:
            value_text = _text(value, memo)
        parts.append(key_text + value_text)
    return "{" + ",".join(parts) + "}"


def _record_text(plan: _Plan) -> Callable[[Any, dict], str]:
    """The text handler of a record-shaped dataclass.

    The bytes are :func:`_dataclass_text`'s.  Component, daemon, event
    and attrs keys and values are quoted once per call through the
    memo's tables; each enum member's text is cached; the body is
    quoted per record; a value of any other type takes the generic
    :func:`_text`.
    """
    get = plan.get_sorted
    #: the sorted keys with one %s slot each, filled in that order
    template = "{" + ",".join(key + "%s" for key in plan.keys) + "}"
    enum_texts: dict[int, tuple] = {}

    def enum_text(member: Any, memo: dict) -> str:
        # the member rides along so its id stays unique while cached
        hit = enum_texts.get(id(member))
        if hit is not None:
            return hit[1]
        encoded = _text(member, memo)
        if isinstance(member, Enum):
            enum_texts[id(member)] = (member, encoded)
        return encoded

    def text(obj: Any, memo: dict) -> str:
        hit = memo.get(id(obj))
        if hit is not None:
            return hit[1]
        quoted = memo.get(_QUOTED)
        if quoted is None:
            quoted = memo[_QUOTED] = {}
            memo[_SHAPES] = {}
        attrs, body, comp, daemon, event, sev, src, t = get(obj)
        encoded = template % (
            (_attrs_text(attrs, quoted, memo[_SHAPES], memo) if attrs
             else "{}") if type(attrs) is dict else _text(attrs, memo),
            _quote(body) if type(body) is str else _text(body, memo),
            _name_text(comp, quoted, memo),
            _name_text(daemon, quoted, memo),
            "null" if event is None else _name_text(event, quoted, memo),
            enum_text(sev, memo),
            enum_text(src, memo),
            _float_text(t) if type(t) is float else _text(t, memo),
        )
        # the instance rides along so its id stays unique for the call
        memo[id(obj)] = (obj, encoded)
        return encoded

    return text


def _dataclass_handlers(cls: type):
    plan = _Plan(cls)
    text = (_record_text(plan)
            if plan.omit is None and tuple(sorted(plan.names)) == _RECORD_FIELDS
            else _dataclass_text(plan))
    return text, _dataclass_tree(plan)


#: kind -> (text handler, tree handler), given the concrete type
_HANDLERS = {
    "none": lambda cls: ((lambda obj: "null"), _same),
    "str": lambda cls: (_quote, _same),
    "bool": lambda cls: (_BOOL_TEXT.__getitem__, _same),
    "int": _int_leaf,
    "float": _float_leaf,
    "enum": _enum_leaf,
    "dataclass": _dataclass_handlers,
    "dict": lambda cls: (_dict_text, _dict_tree),
    "ndarray": lambda cls: ((lambda obj, memo: _seq_text(obj.tolist(), memo)),
                            (lambda obj: _seq_tree(obj.tolist()))),
    "seq": lambda cls: (_seq_text, _seq_tree),
    "set": lambda cls: (_set_text, _set_tree),
}
#: kinds whose text handler takes no memo (no nested values)
_LEAF_KINDS = frozenset({"none", "str", "bool", "int", "float", "enum"})


def to_jsonable(obj: Any) -> Any:
    """``obj`` as fresh plain JSON-encodable data (no shared subtrees)."""
    handler = _tree(type(obj))
    if handler is None:
        if not _learn(type(obj)):
            raise _unencodable(obj)
        handler = _TREE[type(obj)]
    return handler(obj)


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of any report-shaped object."""
    return _text(obj, {})


def report_digest(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON (the parity fingerprint)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
