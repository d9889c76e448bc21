"""Which functions under ``src/repro`` do the targets never enter?

A census by hand, not a CI check.  Each ``run`` executes one target in
this interpreter with a ``sys.setprofile`` hook that notes every Python
function under ``src/repro`` it enters, and writes those to a file;
``report`` joins any number of such files and lists every ``def`` under
``src/repro`` that none of them entered, with its body's line count::

    export PYTHONPATH=src:. REPRO_SWEEP_WORKERS=1
    python tools/census.py run census/e2e.json benchmarks/e2e/run.py --smoke
    python tools/census.py run census/chaos7.json -m repro chaos bookstore \\
        --pages 30 --chaos-seed 7 --fault-rate 0.2
    python tools/census.py run census/bench.json -m pytest benchmarks \\
        --benchmark-disable -q
    python tools/census.py run census/quickstart.json examples/quickstart.py
    python tools/census.py report census/*.json

A target is a script path or ``-m module``, followed by its own arguments,
run as ``__main__``.

Caveats — a definition on the list is a lead, not a verdict:

* Only what the targets run counts.  Error paths, refusals and options no
  target sets are listed too; most of the list is such paths, and they
  stay.  Before deleting one, grep ``src``, ``benchmarks`` and
  ``examples`` for its callers.
* Child processes are not traced: a process pool's workers, and a target
  that starts another interpreter (``benchmarks/e2e/run.py`` measures in
  child interpreters; ``--smoke`` also checks in-process).  Pin pools to
  one worker (``REPRO_SWEEP_WORKERS=1``), or run the child as a target of
  its own.
* A function is matched by its file and its first line (the first
  decorator's line when it has decorators); a ``lambda`` or comprehension
  is not listed.  Protocol stubs (a body of ``...``) are never entered by
  design.
* pytest-benchmark suspends profilers during its timed rounds: run the
  benchmark modules with ``--benchmark-disable``.
* The hook slows a target down several times; timing-bound targets
  (benchmark gates, deadlines) may fail under it, and still count what
  they entered.
"""

from __future__ import annotations

import argparse
import ast
import json
import runpy
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def run(out: Path, command: list[str]) -> int:
    """Run ``command`` (a target and its arguments) as ``__main__`` and
    write the functions it entered."""
    prefix = str(SRC)
    entered: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    module = command[0] == "-m"
    target = command[1] if module else command[0]
    sys.argv = [target, *command[2 if module else 1 :]]
    # As ``python script`` / ``python -m`` would: the script's directory,
    # or the working directory, first on the path.
    sys.path.insert(0, "" if module else str(Path(target).resolve().parent))
    status = 0
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exit_:
        status = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = sorted(
        [str(Path(path).relative_to(SRC)), line] for path, line in entered
    )
    out.write_text(json.dumps(records) + "\n")
    print(f"{len(records)} functions entered; written to {out}", file=sys.stderr)
    return status


def definitions() -> list[tuple[str, int, str, int]]:
    """Every ``def`` under ``src/repro``: (file, first line, qualified
    name, body lines)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{scope}{child.name}"
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    body = child.end_lineno - child.body[0].lineno + 1
                    found.append((relative, first, name, body))
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                else:
                    visit(child, scope)

        visit(tree, "")
    return found


def report(files: list[Path]) -> int:
    """Print every definition no census file saw entered."""
    entered = set()
    for path in files:
        entered.update(tuple(record) for record in json.loads(path.read_text()))
    every = definitions()
    missing = [d for d in every if (d[0], d[1]) not in entered]
    for relative, line, name, body in missing:
        print(f"{relative}:{line}  {name}  ({body} lines)")
    print(
        f"{len(missing)} of {len(every)} definitions never entered, "
        f"{sum(d[3] for d in missing)} body lines, across {len(files)} runs"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="trace one target")
    runner.add_argument("out", type=Path, help="census file to write")
    runner.add_argument(
        "target", nargs=argparse.REMAINDER, help="script [args] or -m module [args]"
    )
    reporter = commands.add_parser("report", help="list what no run entered")
    reporter.add_argument("files", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        if not args.target or args.target == ["-m"]:
            parser.error("run needs a target: a script, or -m module")
        return run(args.out, args.target)
    return report(args.files)


if __name__ == "__main__":
    sys.exit(main())
