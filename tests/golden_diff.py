"""Compare two golden CLI fixtures, number by number.

Usage, from the root of a checkout::

    git show HEAD:tests/golden/cli.json > old.json
    PYTHONPATH=src python tests/test_golden.py      # rewrites the fixture
    python tests/golden_diff.py old.json tests/golden/cli.json

Both files are lists written by ``tests/test_golden.py``.  For each case
the exit code and the stderr error line must be equal.  Stdout, JSON or
CSV alike, is split into numbers and the text between them: the text
(keys, verdicts, layout) must be equal, and each number may move by at
most ``REL_TOL`` relative or ``ABS_TOL`` absolute.  Prints one line per
changed case, with one ``FAULT`` line per fault under it (a changed error
line is followed by its old and new text), and exits 1 if any change is
beyond those bounds.  A case only in the old file is printed as
``removed:`` and is a fault; a case only in the new one is printed as
``added:`` and is not.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

REL_TOL = 1e-12
ABS_TOL = 1e-13

# A decimal number with optional sign, fraction and exponent; the capture
# group makes re.split keep it, so numbers sit at the odd indices.
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def compare_case(old: dict, new: dict) -> tuple[float, float, list[str]]:
    """(largest relative change, largest absolute change, faults) of one case."""
    faults = [f"{key} differs" for key in ("exit", "error") if old[key] != new[key]]
    a, b = _NUMBER.split(old["stdout"]), _NUMBER.split(new["stdout"])
    if len(a) != len(b):
        return 0.0, 0.0, faults + ["stdout layout differs"]
    worst_rel = worst_abs = 0.0
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2 == 0:
            faults.append(f"text differs: {x!r} -> {y!r}")
            continue
        u, v = float(x), float(y)
        gap = abs(u - v)
        rel = gap / max(abs(u), abs(v)) if gap else 0.0
        worst_rel, worst_abs = max(worst_rel, rel), max(worst_abs, gap)
        if rel > REL_TOL and gap > ABS_TOL:
            faults.append(f"number {x} -> {y} (relative {rel:.1e})")
    return worst_rel, worst_abs, faults


def compare(old_cases: list[dict], new_cases: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether every change is within the bounds."""
    old = {tuple(c["argv"]): c for c in old_cases}
    new = {tuple(c["argv"]): c for c in new_cases}
    lines, ok = [], old.keys() <= new.keys()
    for argv in (argv for argv in old if argv not in new):
        lines += [f"removed: {' '.join(argv)}", "  FAULT case removed"]
    lines += [f"added: {' '.join(argv)}" for argv in new if argv not in old]
    changed = 0
    for argv in (argv for argv in old if argv in new):
        if old[argv] == new[argv]:
            continue
        changed += 1
        rel, gap, faults = compare_case(old[argv], new[argv])
        ok = ok and not faults
        lines.append(f"changed: {' '.join(argv)}: numbers moved by up to "
                     f"{rel:.1e} relative, {gap:.1e} absolute")
        for fault in faults:
            lines.append(f"  FAULT {fault}")
            if fault == "error differs":
                lines += [f"    old: {old[argv]['error']}", f"    new: {new[argv]['error']}"]
    lines.append(f"{changed} of {len(old)} cases changed; "
                 f"{'all within' if ok else 'NOT within'} the bounds")
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(pathlib.Path(path).read_text("utf-8")) for path in argv)
    lines, ok = compare(old, new)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
