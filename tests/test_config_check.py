"""The config check in ``cli`` against jsonschema, the reference it replaces.

jsonschema is a test dependency only.  Both validators must accept and
reject the same configs, and report their first error (errors sorted by
path) at the same path.  The corpus is every config the tests write, the
README example, and single-key mutations of each at every path.
"""

import copy
import json

import jsonschema
import pytest

from carleman_lab import cli
from test_artifacts import CONFIG as ARTIFACTS_CONFIG
from test_cli import README_CONFIG, WORKED_GEOMETRY, base_config

# values swapped in at every path: each JSON type, the schema's bounds and
# their neighbours, and integral floats
REPLACEMENTS = [
    "", "x", "LO", "HI", None, True, False,
    0, 0.0, -1, 1, 1.0, 3, 3.0, 4, 4.0, 4.5, 1e-9, -1e-9,
    [], [0.5], [0.5, 1.0], [0.5, 1.0, 2.0], ["a", 1],
    {}, {"name": "one"}, {"bogus": 1},
]


def _bases():
    region = base_config("out", geometry=WORKED_GEOMETRY)
    region["weight"] = {"region": {"delta1": 0.1}}
    return [base_config("out"), region, ARTIFACTS_CONFIG, copy.deepcopy(README_CONFIG)]


def _paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _edited(config, path, change):
    """A copy of ``config`` after ``change(parent, key)`` on the value at ``path``."""
    holder = {"": copy.deepcopy(config)}
    parent, key = holder, ""
    for step in path:
        parent, key = parent[key], step
    change(parent, key)
    return holder[""]


def _mutations(config):
    for path in _paths(config):
        for value in REPLACEMENTS:
            yield _edited(config, path, lambda parent, key: parent.__setitem__(key, value))
        if path:  # a missing key, or a shorter array
            yield _edited(config, path, lambda parent, key: parent.__delitem__(key))
        target = config
        for key in path:
            target = target[key]
        if isinstance(target, dict):
            yield _edited(config, path, lambda parent, key: parent[key].__setitem__("bogus", 1))
        elif isinstance(target, list):
            yield _edited(config, path, lambda parent, key: parent[key].append("x"))
        elif isinstance(target, int) and not isinstance(target, bool):
            yield _edited(config, path, lambda parent, key: parent.__setitem__(key, float(target)))


def _corpus():
    for base in _bases():
        yield base
        yield from _mutations(base)


def _first_error_path(errors):
    return min((path for path, _ in errors), default=None)


def test_the_config_check_agrees_with_jsonschema():
    schema = cli._schema()
    reference = jsonschema.Draft202012Validator(schema)
    checked = rejected = 0
    for config in _corpus():
        want = _first_error_path((tuple(e.absolute_path), e.message) for e in reference.iter_errors(config))
        got = _first_error_path(cli._errors(schema, config, schema))
        assert got == want, json.dumps(config)
        checked += 1
        rejected += want is not None
    assert checked > 1000 and 0 < rejected < checked


def test_a_schema_keyword_the_check_does_not_implement_is_refused():
    profile = {"type": "string", "pattern": "^[a-z]+$"}
    with pytest.raises(ValueError, match="pattern"):
        cli._checked({"type": "object", "properties": {"name": profile}})
    with pytest.raises(ValueError, match="pattern"):
        cli._checked({"$defs": {"name": profile}})
    with pytest.raises(ValueError, match="remote"):
        cli._checked({"$ref": "https://example.org/remote"})
