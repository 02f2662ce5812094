"""cli._render_json writes the bytes of json.dumps(doc, indent=2) + newline.

json.dumps is the oracle: every golden report, generated documents with
non-ASCII and control characters and empty containers, the value types
the writer hands back to json.dumps, and the TypeErrors json.dumps raises.
"""

import enum
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidtel.cli import _render_json
from test_golden import GOLDEN_DIR


def _oracle(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_golden_documents_are_rewritten_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert _oracle(doc) == text
    assert _render_json(doc) == text


_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=("Cs",)), max_size=12)
_SCALARS = st.none() | st.booleans() | st.integers(min_value=-(2**70), max_value=2**70) | _TEXT
_DOCS = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_generated_documents_match_json_dumps(doc):
    assert _render_json(doc) == _oracle(doc)


class _Level(enum.IntEnum):
    LOW = 1


class _Label(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}, [[]]]},
        {"floats": [0.5, -0.0, 1e300, float("nan"), float("inf"), -float("inf")]},
        {"tuple": (1, "x", (None, [2.5]))},
        {1: "int key", 2.5: "float key", True: "bool key", None: "none key", "s": {3: [4]}},
        {"subclasses": [_Level.LOW, _Label("é\n"), OrderedDict(z=1, a=[_Label("k")]), {_Label("key"): 1}]},
        {"numpy float": np.float64(0.1), "nested": [{"deep": [[[" \x00\x1f\"\\"]]]}]},
        "top-level string\twith a tab",
        7,
        None,
    ],
    ids=["empty-dict", "empty-list", "empty-nested", "floats", "tuples", "non-str-keys", "subclasses", "numpy-float",
         "string", "int", "none"],
)
def test_values_handed_to_json_dumps_match(doc):
    assert _render_json(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"value": object()},
        {"results": [{"label": "x", "value": np.int64(3)}]},
        {"flag": np.bool_(True)},
        [1, {"set": {1, 2}}],
        {(0, 1): "tuple key"},
        {"nested": {"c": 1j}},
    ],
    ids=["object", "numpy-int", "numpy-bool", "set", "tuple-key", "complex"],
)
def test_type_errors_are_those_of_json_dumps(doc):
    with pytest.raises(TypeError) as expected:
        _oracle(doc)
    with pytest.raises(TypeError) as got:
        _render_json(doc)
    assert str(got.value) == str(expected.value)
