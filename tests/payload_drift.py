"""Compare the payloads of two report trees key by key.

    python tests/payload_drift.py OLD_DIR NEW_DIR

Every ``report.json`` under OLD_DIR is paired with the one at the same
relative path under NEW_DIR, and their ``payload`` blocks are walked
together.  Of the volatile provenance block only the grid solver's record
``grid_solve`` is compared (preconditioner, iterations, start, final and
tail residuals), without its ``*_s`` timings; the timestamp and everything
else there is not.  For each payload path, or ``:grid_solve`` path, with
list indices folded into ``[]``, the script prints how many of its
numbers moved and the worst absolute and relative drift among them, where
the relative drift of a and b is |a - b| / max(|a|, |b|).  Every changed
string is printed with its old and new value, and so is every structural
change: a key, an item or a report present on one side only, or a value
whose type changed.  CSV files beside the reports are compared byte for
byte and named when they differ.

Exits 0 when the trees agree exactly and 1 otherwise, like ``cmp``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import defaultdict


def _files(root: str, suffix: str) -> set:
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(suffix):
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


class Drift:
    """Per-path drift of numbers, plus the changed strings and structure."""

    def __init__(self):
        self.numbers = defaultdict(lambda: [0, 0, 0.0, 0.0])  # seen, moved, abs, rel
        self.changes = []       # (where, old, new) of strings and structure

    def walk(self, where: str, old, new):
        if isinstance(old, dict) and isinstance(new, dict):
            for key in sorted(set(old) | set(new)):
                at = f"{where}.{key}"
                if key not in new:
                    self.changes.append((at, old[key], "<absent>"))
                elif key not in old:
                    self.changes.append((at, "<absent>", new[key]))
                else:
                    self.walk(at, old[key], new[key])
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.changes.append((f"{where}[]", f"<{len(old)} items>",
                                     f"<{len(new)} items>"))
            for a, b in zip(old, new):
                self.walk(f"{where}[]", a, b)
        elif _is_number(old) and _is_number(new):
            self._number(where, float(old), float(new))
        elif old != new or type(old) is not type(new):
            self.changes.append((where, old, new))

    def _number(self, where: str, a: float, b: float):
        entry = self.numbers[where]
        entry[0] += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        entry[1] += 1
        if not (math.isfinite(a) and math.isfinite(b)):
            entry[2] = entry[3] = math.inf
            return
        gap = abs(a - b)
        entry[2] = max(entry[2], gap)
        entry[3] = max(entry[3], gap / max(abs(a), abs(b)))


def _solver_record(report: dict):
    """The grid solver's record of a report without its timings, or None."""
    record = report.get("provenance_volatile", {}).get("grid_solve")
    if record is None:
        return None
    return {k: v for k, v in record.items() if not k.endswith("_s")}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(old_root: str, new_root: str, out=sys.stdout) -> bool:
    """Print the drift between the two trees; True when they agree exactly."""
    drift = Drift()
    old_reports, new_reports = (_files(r, "report.json") for r in (old_root, new_root))
    for rel in sorted(old_reports ^ new_reports):
        side = "old" if rel in old_reports else "new"
        drift.changes.append((rel, f"<only in {side} tree>", ""))
    for rel in sorted(old_reports & new_reports):
        with open(os.path.join(old_root, rel)) as f:
            old = json.load(f)
        with open(os.path.join(new_root, rel)) as f:
            new = json.load(f)
        where = os.path.dirname(rel) or "."
        drift.walk(f"{where}:payload", old.get("payload"), new.get("payload"))
        drift.walk(f"{where}:grid_solve", _solver_record(old),
                   _solver_record(new))

    csv_differ = []
    old_csv, new_csv = (_files(r, ".csv") for r in (old_root, new_root))
    for rel in sorted(old_csv | new_csv):
        paths = [os.path.join(r, rel) for r in (old_root, new_root)]
        if not all(os.path.exists(p) for p in paths):
            csv_differ.append(f"{rel} (on one side only)")
            continue
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            if a.read() != b.read():
                csv_differ.append(rel)

    moved = {k: v for k, v in drift.numbers.items() if v[1]}
    seen = sum(v[0] for v in drift.numbers.values())
    print(f"{len(old_reports & new_reports)} report pairs, {seen} numbers, "
          f"{sum(v[1] for v in moved.values())} moved, "
          f"{len(drift.changes)} other changes, {len(csv_differ)} CSV files differ",
          file=out)
    if moved:
        width = max(len(k) for k in moved)
        print(f"{'path':<{width}}  {'moved':>9}  {'max abs':>9}  {'max rel':>9}",
              file=out)
        for key in sorted(moved):
            n, m, gap, rel = moved[key]
            print(f"{key:<{width}}  {f'{m}/{n}':>9}  {gap:9.2e}  {rel:9.2e}",
                  file=out)
        worst = max(moved, key=lambda k: moved[k][3])
        print(f"worst relative drift {moved[worst][3]:.2e} at {worst}", file=out)
    for where, old, new in drift.changes:
        print(f"changed {where}: {old!r} -> {new!r}", file=out)
    for rel in csv_differ:
        print(f"csv differs: {rel}", file=out)
    return not (moved or drift.changes or csv_differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the reference report tree")
    parser.add_argument("new", help="the report tree to compare with it")
    args = parser.parse_args(argv)
    return 0 if compare(args.old, args.new, sys.stdout) else 1


if __name__ == "__main__":
    sys.exit(main())
