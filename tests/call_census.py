"""Call census: which functions in ``src/repro`` does tier-1 never call?

Runs the tier-1 suite once under a profile hook and maps every code object
that started under ``src/repro`` onto the ``def`` statements that ``ast``
finds there. A definition that no test reached is reported as
``file:def_line qualname lines``.

    python tests/call_census.py            # report only
    python tests/call_census.py --check    # also gate against the allowlist

The hook is a ``sitecustomize.py`` written into a temporary directory that
goes first on ``PYTHONPATH``, so every interpreter tier-1 starts loads it
(an exec child inherits it through the environment, a forked child keeps
it). It records ``(co_filename, co_firstlineno, co_name)`` for every call
into ``src/repro`` with ``sys.setprofile`` / ``threading.setprofile``, and
writes what it saw at interpreter exit (``atexit``) or at ``os._exit``,
which is how forked children leave. Children started with a scrubbed
environment, and children killed by SIGKILL, write nothing: code that runs
only there reads as never called.

``--check`` fails when a never-called definition is not in
``tests/data/call_census_allow.txt``, or when an entry there names a
definition that is now reached or no longer exists; ``timing`` entries are
exempt both ways. Each entry is ``path:qualname<TAB>reason``.

The hypothesis seed is pinned because what the property tests reach
depends on it. The script uses only the standard library and adds nothing
to ``src/``.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = ROOT / "tests" / "data" / "call_census_allow.txt"
REASONS = ("repr", "abstract", "paper-api", "subprocess", "bench", "timing")
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]

HOOK = '''\
import atexit, os, sys, threading

_prefix = os.environ.get("CALL_CENSUS_PREFIX")
_out = os.environ.get("CALL_CENSUS_OUT")
if _prefix and _out:
    _seen = set()

    def _census_profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_prefix):
                _seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    def _census_dump():
        name = os.path.join(_out, "%d-%s.txt" % (os.getpid(), os.urandom(4).hex()))
        try:
            with open(name, "w") as f:
                for file, line, func in _seen:
                    f.write("%s\\t%d\\t%s\\n" % (file, line, func))
        except OSError:
            pass

    _real_exit = os._exit

    def _census_exit(code):
        _census_dump()
        _real_exit(code)

    os._exit = _census_exit
    atexit.register(_census_dump)
    sys.setprofile(_census_profile)
    threading.setprofile(_census_profile)
'''


class Definition:
    """One ``def`` under ``src/repro``."""

    __slots__ = ("path", "qualname", "name", "line", "first", "lines")

    def __init__(self, path: str, qualname: str, node: ast.AST) -> None:
        self.path = path
        self.qualname = qualname
        self.name = node.name
        self.line = node.lineno
        # A decorated function's code object starts at its first decorator.
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - node.lineno + 1

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def definitions() -> list[Definition]:
    """Every function and method defined under ``src/repro``, in file order."""
    found: list[Definition] = []

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(Definition(path, prefix + child.name, child))
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        walk(ast.parse(file.read_text(), str(file)), path, "")
    return found


def run_tier1(out: Path, hookdir: Path) -> int:
    """Run tier-1 under the hook; records land in ``out``."""
    (hookdir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hookdir), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["CALL_CENSUS_PREFIX"] = str(PACKAGE) + os.sep
    env["CALL_CENSUS_OUT"] = str(out)
    return subprocess.call([sys.executable, *PYTEST], cwd=ROOT, env=env)


def reached(out: Path) -> set[tuple[str, int, str]]:
    """The union of every process's ``(path, first line, name)`` records."""
    seen = set()
    for file in out.iterdir():
        for row in file.read_text().splitlines():
            name, line, func = row.split("\t")
            seen.add((Path(name).relative_to(ROOT).as_posix(), int(line), func))
    return seen


def never_called(defs: list[Definition], seen) -> list[Definition]:
    return [d for d in defs
            if (d.path, d.first, d.name) not in seen
            and (d.path, d.line, d.name) not in seen]


def load_allowlist(path: Path) -> dict[str, str]:
    allow: dict[str, str] = {}
    for n, row in enumerate(path.read_text().splitlines(), 1):
        if not row.strip() or row.startswith("#"):
            continue
        key, sep, reason = row.partition("\t")
        if not sep or reason not in REASONS:
            raise SystemExit(f"{path}:{n}: expected 'path:qualname<TAB>reason', "
                             f"reason one of {', '.join(REASONS)}: {row!r}")
        if key in allow:
            raise SystemExit(f"{path}:{n}: duplicate entry {key}")
        allow[key] = reason
    return allow


def check(defs, uncalled, allow) -> list[str]:
    """What the gate refuses: unlisted never-called code and stale entries."""
    problems = [f"never called, not on the allowlist: {d.path}:{d.line} {d.qualname}"
                for d in uncalled if d.key not in allow]
    existing = {d.key for d in defs}
    missing = {d.key for d in uncalled}
    for key, reason in allow.items():
        if reason == "timing":
            continue
        if key not in existing:
            problems.append(f"allowlist entry names no definition: {key}")
        elif key not in missing:
            problems.append(f"allowlist entry is now reached: {key} ({reason})")
    return problems


def report(defs, uncalled, allow) -> str:
    rows = [f"# {len(defs)} definitions under src/repro, {len(uncalled)} never "
            f"called ({sum(d.lines for d in uncalled)} lines)"]
    for d in uncalled:
        rows.append(f"{d.path}:{d.line} {d.qualname} {d.lines}"
                    f"\t{allow.get(d.key, 'UNLISTED')}")
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail on unlisted never-called code or stale allowlist entries")
    ap.add_argument("--report", type=Path, default=None,
                    help="also write the report to this file")
    args = ap.parse_args(argv)

    allow = load_allowlist(ALLOWLIST)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="call-census-") as tmp:
        out = Path(tmp) / "records"
        out.mkdir()
        status = run_tier1(out, Path(tmp))
        if status != 0:
            print(f"call census: tier-1 failed under the hook (exit {status})")
            return status
        seen = reached(out)
    defs = definitions()
    uncalled = never_called(defs, seen)
    text = report(defs, uncalled, allow)
    print(text, end="")
    print(f"# census took {time.monotonic() - started:.0f} s")
    if args.report is not None:
        args.report.write_text(text)
    if not args.check:
        return 0
    problems = check(defs, uncalled, allow)
    for p in problems:
        print(p)
    print(f"call census: {'FAIL' if problems else 'OK'} "
          f"({len(problems)} problem(s), {len(allow)} allowlist entries)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
