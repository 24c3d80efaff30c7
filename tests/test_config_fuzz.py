"""Mutated preset documents either parse to a valid config or raise ConfigError,
and through the CLI either run or end in exit 1 with a one-line JSON error."""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cascsim.cli import main
from cascsim.config import config_from_dict, preset_names
from cascsim.errors import ConfigError

PRESETS = [json.loads(resources.files("cascsim").joinpath("presets", f"{name}.json")
                      .read_text(encoding="utf-8")) for name in preset_names()]

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.just(10 ** 400),
                    st.floats(), st.text(max_size=6))
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


def locations(doc, prefix=()):
    """Key path of every value below the document root."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from locations(value, prefix + (key,))


def mutated_preset(data) -> dict:
    """A shipped preset document with one to three values replaced, deleted or added."""
    doc = copy.deepcopy(data.draw(st.sampled_from(PRESETS)))
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.sampled_from(list(locations(doc))))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(("replace", "delete", "add key")))
        if action == "replace":
            parent[where[-1]] = data.draw(JSON_VALUES)
        elif action == "delete":
            del parent[where[-1]]
        elif isinstance(parent, dict):
            parent[data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    return doc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_mutated_presets_parse_or_raise_config_error(data):
    try:
        config = config_from_dict(mutated_preset(data))
    except ConfigError:
        return
    config.validate()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_preset_files_exit_0_or_1_with_json_error(data):
    """``capacity`` loads and validates the whole config without running it (a
    valid mutation may ask ``simulate`` for millions of devices)."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(mutated_preset(data)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["capacity", "--config", str(path), "--slo", "100"])
    if status == 0:
        assert err.getvalue() == "" and "capacity" in json.loads(out.getvalue())
        return
    assert status == 1 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in ("ConfigError", "TraceError")
