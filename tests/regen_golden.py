"""Regenerate the golden equivalence fixtures under ``tests/golden/``.

Usage::

    PYTHONPATH=src python -m tests.regen_golden             # all scenarios
    PYTHONPATH=src python -m tests.regen_golden fig8 fig10  # a subset

Each fixture is one canonical default-margin run of a pinned
scenario — see ``tests/goldens.py``
for the registry and schema.  Only regenerate after an *intended*
behavior change, and review the resulting JSON diff like code.
"""

from __future__ import annotations

import sys

from tests.goldens import SCENARIOS, capture, save


def main(argv) -> int:
    names = argv or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    for name in names:
        path = save(name, capture(name))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
