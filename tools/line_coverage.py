"""Lines of ``src/uqsl2`` that the Tier-1 tests never execute in-process.

    python3 tools/line_coverage.py [--src DIR] [--check] [PYTEST_ARG ...]

DIR is a checkout of this repository (default: the one holding this script).
The script runs ``pytest.main`` on DIR's ``tests``, as the Tier-1 command does,
with ``sys.settrace`` and ``threading.settrace`` set; the trace records the
lines executed in frames whose code lives in DIR's ``src/uqsl2`` and ignores
every other frame.  Arguments it does not know go to pytest (``-k``, ``-x``).
Afterwards it clears the trace and prints, file by file, each line that the
``co_lines()`` of some code object compiled from that file holds but the run
never executed, then a count per file.  The exit status is pytest's.

With ``--check`` the run is also held against ``unexecuted_lines.json`` beside this
script, the lines known to be out of reach, keyed by file name and stripped line
text (so an edit elsewhere in a file does not move them): each unexecuted line
not on that list is printed again after ``new:``, and the exit status is 1 when
there is one (pytest's status when that is not 0).  A listed line that did run is
printed after ``ran:``, and is no failure.

Only this process is traced.  The CLI tests call ``uqsl2.cli.main`` in-process,
so their lines are seen; the few tests whose subject is a fresh process go
untraced: ``tests/test_cli.py``'s ``test_pole_exits_3`` (``python -m uqsl2.cli``,
hence ``cli.py``'s ``sys.exit(main())`` line), ``TestDeterminism`` and
``test_scipy_is_loaded_by_the_solver_alone``, ``tests/test_demos.py`` and the
``python -m`` runs of ``tests/test_acceptance.py``.  Lines that only
hypothesis-drawn inputs reach can come and go between runs.  A ``lambda`` or
comprehension counts as executed once its line runs, called or not.

The script imports nothing that loads numpy before ``pytest.main``:
``tests/conftest.py`` pins BLAS threads and refuses to run once numpy is loaded.
It needs no package beyond pytest and the standard library.
"""

import argparse
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN = Path(__file__).resolve().parent / "unexecuted_lines.json"


def code_lines(path: Path) -> set:
    """Every line number a code object compiled from the file at path maps bytecode to."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pkg: Path, pytest_args: list) -> tuple:
    """(pytest's exit status, {file name: executed line numbers}) of one traced run."""
    import pytest

    prefix = f"{pkg}/"
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT, help="repository checkout to test")
    p.add_argument("--check", action="store_true",
                   help=f"fail on an unexecuted line that {KNOWN.name} does not list")
    args, pytest_args = p.parse_known_args(argv)
    src = args.src.resolve()
    pkg = src / "src" / "uqsl2"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found")
    sys.path.insert(0, str(pkg.parent))
    status, executed = traced_run(pkg, [str(src / "tests"), "--rootdir", str(src), "-q",
                                        "-p", "no:cacheprovider",
                                        "--continue-on-collection-errors", *pytest_args])
    imported = sys.modules.get("uqsl2")
    if imported is not None and Path(imported.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: uqsl2 was imported from {imported.__file__}")
    counts, unlisted = {}, []
    known = json.loads(KNOWN.read_text()) if args.check else {}
    for path in sorted(pkg.glob("*.py")):
        text = path.read_text().splitlines()
        missed = sorted(code_lines(path) - executed.get(str(path), set()))
        counts[path.name] = len(missed)
        listed = set(known.get(path.name, ()))
        for line in missed:
            where = f"{path.relative_to(src)}:{line}: {text[line - 1].strip()}"
            print(where)
            if args.check and text[line - 1].strip() not in listed:
                unlisted.append(where)
        for line in sorted(listed - {text[line - 1].strip() for line in missed}):
            print(f"ran: {path.relative_to(src)}: {line}")
    print(", ".join(f"{name} {n}" for name, n in counts.items()),
          f"unexecuted lines; pytest exit status {status}")
    for where in unlisted:
        print(f"new: {where}")
    return status or int(bool(unlisted))


if __name__ == "__main__":
    sys.exit(main())
