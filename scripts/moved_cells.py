#!/usr/bin/env python3
"""Name every value that differs between two reference-output directories.

Usage: scripts/moved_cells.py BASE HEAD
  BASE, HEAD  directories written by scripts/reference_outputs.py from
              two source trees

`diff -r` says which lines differ; this says which values moved and by how
much.  One line is printed per moved value:
  CSV files   file, row number (the header is row 0), column name
  JSON files  file, key path of the leaf (list items as [i])
  other text  file, line number, token position (whitespace-separated)
followed by old -> new and, when both parse as numbers (decimal or
float.hex), the relative change (new - old) / |old|.  Files present on one
side only are named as such, and a count of moved values ends the list;
like `diff -r`, it prints nothing when nothing moved.  Exit status: 0 when
nothing moved, 1 when something did, 2 on a usage error.

Example, after the reference outputs of a change and its parent:
  python3 scripts/moved_cells.py /tmp/ref-parent /tmp/ref-change
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

MISSING = "(missing)"


def number(text: str) -> float | None:
    for parse in (float, float.fromhex):
        try:
            return parse(text)
        except (ValueError, OverflowError):
            pass
    return None


def relative_change(old: str, new: str) -> str:
    a, b = number(old), number(new)
    if a is None or b is None:
        return ""
    if a == 0.0:
        return "  (old is 0)"
    return f"  ({(b - a) / abs(a):+.3e})"


def moved(where: str, old: str, new: str) -> str:
    return f"{where}: {old} -> {new}{relative_change(old, new)}"


def csv_cells(name: str, base: Path, head: Path) -> list[str]:
    with base.open(newline="") as f:
        old_rows = list(csv.reader(f))
    with head.open(newline="") as f:
        new_rows = list(csv.reader(f))
    header = (new_rows or old_rows or [[]])[0]
    lines = []
    for r in range(max(len(old_rows), len(new_rows))):
        old = old_rows[r] if r < len(old_rows) else []
        new = new_rows[r] if r < len(new_rows) else []
        for c in range(max(len(old), len(new))):
            a = old[c] if c < len(old) else MISSING
            b = new[c] if c < len(new) else MISSING
            if a != b:
                column = header[c] if c < len(header) else f"#{c}"
                lines.append(moved(f"{name} row {r} column {column}", a, b))
    return lines


def leaves(value, path: str = ""):
    """(key path, leaf) pairs of a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def json_leaves(name: str, base: Path, head: Path) -> list[str]:
    old = dict(leaves(json.loads(base.read_text())))
    new = dict(leaves(json.loads(head.read_text())))
    lines = []
    for path in list(old) + [p for p in new if p not in old]:
        a = json.dumps(old[path]) if path in old else MISSING
        b = json.dumps(new[path]) if path in new else MISSING
        if a != b:
            lines.append(moved(f"{name} {path}", a, b))
    return lines


def text_tokens(name: str, base: Path, head: Path) -> list[str]:
    old_lines = base.read_text().splitlines()
    new_lines = head.read_text().splitlines()
    lines = []
    for i in range(max(len(old_lines), len(new_lines))):
        old = old_lines[i].split() if i < len(old_lines) else []
        new = new_lines[i].split() if i < len(new_lines) else []
        for t in range(max(len(old), len(new))):
            a = old[t] if t < len(old) else MISSING
            b = new[t] if t < len(new) else MISSING
            if a != b:
                lines.append(moved(f"{name} line {i + 1} token {t + 1}", a, b))
    return lines


def compare(base_dir: Path, head_dir: Path) -> list[str]:
    names = sorted({p.relative_to(d).as_posix()
                    for d in (base_dir, head_dir) for p in d.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        base, head = base_dir / name, head_dir / name
        if not base.is_file() or not head.is_file():
            lines.append(f"{name}: only in {'HEAD' if head.is_file() else 'BASE'}")
        elif base.read_bytes() != head.read_bytes():
            if name.endswith(".csv"):
                found = csv_cells(name, base, head)
            elif name.endswith(".json"):
                found = json_leaves(name, base, head)
            else:
                found = text_tokens(name, base, head)
            lines.extend(found or [f"{name}: the bytes differ, but no value moved"])
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines = compare(Path(argv[0]), Path(argv[1]))
    if not lines:
        return 0
    for line in lines:
        print(line)
    print(f"{len(lines)} moved value(s) between {argv[0]} and {argv[1]}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
