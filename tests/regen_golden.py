"""Regenerate or check the golden equivalence fixtures under ``tests/golden/``.

Usage::

    PYTHONPATH=src python -m tests.regen_golden             # all scenarios
    PYTHONPATH=src python -m tests.regen_golden fig8 fig10  # a subset
    PYTHONPATH=src python -m tests.regen_golden --check [scenario ...]

Each fixture is one canonical default-margin run of a pinned
scenario — see ``tests/goldens.py``
for the registry and schema.  Only regenerate after an *intended*
behavior change, and review the resulting JSON diff like code.

``--check`` re-runs each scenario and prints every difference from its
fixture (per-node counters, per-flow goodput and the network counter
snapshot).  It writes nothing and exits 1 on any difference.
"""

from __future__ import annotations

import sys

from tests.goldens import SCENARIOS, capture, check, save


def main(argv) -> int:
    checking = "--check" in argv
    names = [arg for arg in argv if arg != "--check"] or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    if not checking:
        for name in names:
            path = save(name, capture(name))
            print(f"wrote {path}")
        return 0
    status = 0
    for name in names:
        problems = check(name)
        print(f"{name}: {'differs' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
        if problems:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
