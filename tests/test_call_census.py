"""The call census's bookkeeping (``tests/call_census.py``): how definitions
are keyed and matched, and what ``--check`` refuses. The census run itself
is the CI ``call-census`` job."""

import pytest

from tests.call_census import (
    ALLOWLIST,
    check,
    definitions,
    load_allowlist,
    never_called,
)


def _def(defs, key):
    (d,) = [d for d in defs if d.key == key]
    return d


def test_a_decorated_function_matches_on_its_decorator_line():
    defs = definitions()
    plain = _def(defs, "src/repro/exec/sim.py:SimExecutor.__init__")
    assert plain.first == plain.line  # undecorated
    wrapped = [d for d in defs if d.first < d.line]
    assert wrapped, "src/repro has decorated functions"
    d = wrapped[0]
    # Python starts a decorated function's code at its first decorator.
    assert never_called([d], {(d.path, d.first, d.name)}) == []
    assert never_called([d], {(d.path, d.line, d.name)}) == []
    assert never_called([d], {(d.path, d.first, "other")}) == [d]


def test_check_refuses_unlisted_reached_and_missing_entries():
    defs = definitions()
    a = _def(defs, "src/repro/exec/sim.py:SimExecutor.__repr__")
    b = _def(defs, "src/repro/exec/sim.py:SimExecutor.__init__")
    allow = {b.key: "repr", "src/repro/gone.py:f": "bench",
             "src/repro/gone.py:g": "timing"}
    problems = check(defs, [a], allow)
    assert problems == [
        f"never called, not on the allowlist: {a.path}:{a.line} {a.qualname}",
        f"allowlist entry is now reached: {b.key} (repr)",
        "allowlist entry names no definition: src/repro/gone.py:f",
    ]
    assert check(defs, [a], {a.key: "repr"}) == []
    # timing entries are exempt both ways
    assert check(defs, [a], {a.key: "timing", b.key: "timing"}) == []


def test_the_committed_allowlist_parses_and_names_real_definitions(tmp_path):
    allow = load_allowlist(ALLOWLIST)
    keys = {d.key for d in definitions()}
    assert set(allow) <= keys
    bad = tmp_path / "allow.txt"
    bad.write_text("src/repro/cli.py:main\tunused\n")
    with pytest.raises(SystemExit, match="reason one of"):
        load_allowlist(bad)
