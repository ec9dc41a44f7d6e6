"""Property tests for config loading: any JSON loads as a valid config or fails
with ConfigError, never with another exception."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessmc.cli import SETTINGS, ConfigError, load_config
from hessmc.samplers import METHODS
from support import fuzz

# Small JSON values; method names as strings and object keys reach the
# choice lists and the per-method dt object.
KEYS = st.text(max_size=4) | st.sampled_from(METHODS)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | KEYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)
# Lists and objects of mostly valid items, so that the accepting paths (a
# method list with repeats, a dt object with a stray key) are reached too.
NEAR = st.sampled_from([*METHODS, "NUTS", 0, 1, 2, 0.5, -1.0, True, None])
VALUES = (
    JSON
    | NEAR
    | st.lists(NEAR, min_size=1, max_size=5)
    | st.dictionaries(st.sampled_from([*METHODS, "NUTS"]), NEAR, max_size=4)
)
NAMES = [(section, key) for section, keys in SETTINGS.items() for key in keys]
FUZZ = fuzz(200)


def in_interval(x, interval: str) -> bool:
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    above = lo < x if interval[0] == "(" else lo <= x
    below = x < hi if interval[-1] == ")" else x <= hi
    return above and below


def has_kind(value, default, kind) -> bool:
    """Whether value is a setting of the shape of default and of kind."""
    typ, allowed = kind
    if isinstance(default, list):
        return (
            isinstance(value, list)
            and len(value) == (len(set(value)) if typ is str else len(default)) > 0
            and all(has_kind(v, default[0], kind) for v in value)
        )
    if isinstance(default, dict) and isinstance(value, dict):
        return set(value) <= set(default) and all(
            has_kind(v, default[k], kind) for k, v in value.items()
        )
    if default is None and value is None:
        return True
    if typ is int:
        return type(value) is int and in_interval(value, allowed)
    if typ is float:
        return type(value) is float and in_interval(value, allowed)
    return type(value) is typ and (allowed is None or value in allowed)


def assert_kinds(cfg: dict) -> None:
    for section, key in NAMES:
        default, kind = SETTINGS[section][key]
        assert has_kind(cfg[section][key], default, kind), (section, key)


def check_load(path) -> None:
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert_kinds(cfg)
    # a loaded config is a valid override of itself and is left as it is
    assert load_config(None, cfg) == cfg


def test_defaults_have_their_kinds():
    assert_kinds(load_config(None))


@pytest.mark.parametrize("dt", [1, dict.fromkeys(METHODS, 1)], ids=["scalar", "object"])
def test_float_settings_load_as_floats(tmp_path, dt):
    document = {}
    for section, key in NAMES:
        default, (typ, _) = SETTINGS[section][key]
        if typ is float:
            value = [1] * len(default) if isinstance(default, list) else 1
            document.setdefault(section, {})[key] = value
    document["sampler"]["dt"] = dt
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(document))
    assert_kinds(load_config(str(path)))


@FUZZ
@given(document=JSON)
def test_any_document_loads_or_raises_config_error(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "document.json"
    path.write_text(json.dumps(document))
    check_load(path)


@pytest.mark.parametrize("section, key", NAMES)
@settings(FUZZ, max_examples=30)
@given(value=VALUES)
def test_any_setting_value_loads_or_raises_config_error(
    tmp_path_factory, section, key, value
):
    path = tmp_path_factory.getbasetemp() / "setting.json"
    path.write_text(json.dumps({section: {key: value}}))
    check_load(path)
