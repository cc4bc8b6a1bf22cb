#!/usr/bin/env python3
"""Import cost of the CLI entry point, without a benchmark run.

Runs ``python -X importtime -c "import repro.cli"`` in a fresh
interpreter with this checkout's ``src`` first on the path, then
prints how many modules the interpreter imported and the 20 costliest
ones by cumulative import time (microseconds, as ``-X importtime``
reports them).  Run from the repository root::

    python scripts/import_profile.py      # or: make import-profile
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: How many modules the report lists.
TOP = 20


def main() -> int:
    """Profile ``import repro.cli`` and print the report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not cumulative_us.strip().isdigit():
            continue  # the column header
        rows.append((int(cumulative_us), int(self_us), name.strip()))
    print(f"import repro.cli: {len(rows)} modules imported")
    print(f"{'cumulative us':>14} {'self us':>9}  module")
    for cumulative_us, self_us, name in sorted(rows, reverse=True)[:TOP]:
        print(f"{cumulative_us:>14} {self_us:>9}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
