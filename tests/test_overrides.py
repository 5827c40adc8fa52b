"""`--set` overrides and the canonical serialization, under hypothesis.

`config.apply_overrides` sets exactly the path it is given, creating the
objects missing on the way, leaves its input untouched, and refuses a path
that passes through a value that is not an object, naming the override.
`config.canonical_json` is idempotent.  Under HYPOTHESIS_PROFILE=ci (the
profile tests/conftest.py registers) the examples are derandomized.
"""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sapprox.config import ConfigError, ConfigIssue, apply_overrides, canonical_json

# a key path splits on "." and its value starts after the first "="
keys = st.text(st.characters(blacklist_characters=".=", blacklist_categories=("Cs",)),
               min_size=1, max_size=4)
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(keys, inner, max_size=3), max_leaves=8)
objects = st.dictionaries(keys, values, max_size=4)


@st.composite
def object_paths(draw, raw):
    """1 to 4 keys, each existing or new, whose every proper prefix is an
    object of raw or missing from it."""
    parts, node = [], raw
    depth = draw(st.integers(1, 4))
    for level in range(depth):
        last = level == depth - 1
        existing = sorted(key for key, value in node.items()
                          if last or isinstance(value, dict))
        fresh = keys if last else keys.filter(
            lambda key: key not in node or isinstance(node[key], dict))
        part = draw(st.sampled_from(existing) | fresh if existing else fresh)
        parts.append(part)
        node = node.get(part) if isinstance(node.get(part), dict) else {}
    return parts


def set_path(raw, parts, value):
    """raw with value at parts, the missing objects on the way created."""
    out = copy.deepcopy(raw)
    node = out
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    return out


@given(st.data())
def test_override_sets_exactly_its_path(data):
    raw = data.draw(objects)
    parts = data.draw(object_paths(raw))
    value = data.draw(values)
    before = copy.deepcopy(raw)
    out = apply_overrides(raw, [".".join(parts) + "=" + json.dumps(value)])
    assert raw == before
    assert out == set_path(raw, parts, value)


def is_json(text):
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


@given(objects, st.data(), st.text(max_size=6).filter(lambda text: not is_json(text)))
def test_value_that_is_not_json_stays_a_string(raw, data, text):
    parts = data.draw(object_paths(raw))
    out = apply_overrides(raw, [".".join(parts) + "=" + text])
    assert out == set_path(raw, parts, text)


@given(st.data())
def test_override_through_a_non_object_names_it(data):
    raw = data.draw(objects)
    prefix = data.draw(object_paths(raw))
    raw = set_path(raw, prefix, data.draw(scalars | st.lists(scalars, max_size=2)))
    rest = data.draw(st.lists(keys, min_size=1, max_size=3))
    item = ".".join(prefix + rest) + "=1"
    before = copy.deepcopy(raw)
    with pytest.raises(ConfigError) as exc:
        apply_overrides(raw, [item])
    assert exc.value.issues == [ConfigIssue(
        item, f"{'.'.join(prefix)} is not an object, so it has no field {rest[0]}")]
    assert raw == before


@given(objects)
def test_canonical_json_is_idempotent(raw):
    once = canonical_json(raw)
    assert canonical_json(json.loads(once)) == once
    assert json.loads(once) == raw
