#!/usr/bin/env python3
"""Compare two artifacts.py output directories file by file.

Lists every file that differs between PARENT and CHANGE, or exists in
only one of them. For a differing REPORT.trials.jsonl it also prints how
many trials changed, the largest |delta p1| and |delta p2| among them, and
how many predictions changed. Exits 0 when every file is byte-identical,
1 otherwise:

    python3 scripts/compare_artifacts.py PARENT CHANGE
"""

import json
import sys
from pathlib import Path


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _trials(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def describe_trials(parent: Path, change: Path) -> str:
    """One line on how the trials of two .trials.jsonl files differ."""
    old, new = _trials(parent), _trials(change)
    if len(old) != len(new):
        return f"{len(old)} trials against {len(new)}"
    if any((a["source_id"], a["order"]) != (b["source_id"], b["order"]) for a, b in zip(old, new)):
        return "the trials name other pairs or orders"
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    dp1 = max((abs(a["p1"] - b["p1"]) for a, b in changed), default=0.0)
    dp2 = max((abs(a["p2"] - b["p2"]) for a, b in changed), default=0.0)
    flips = sum(a["prediction"] != b["prediction"] for a, b in changed)
    return (f"{len(changed)} of {len(old)} trials changed, max |dp1| {dp1:.2g}, "
            f"max |dp2| {dp2:.2g}, {flips} predictions changed")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare_artifacts.py PARENT CHANGE")
    parent, change = (Path(a) for a in argv)
    old, new = _files(parent), _files(change)
    differing = 0
    for name in sorted(old | new):
        if name not in new:
            print(f"only in {parent}: {name}")
        elif name not in old:
            print(f"only in {change}: {name}")
        elif (parent / name).read_bytes() == (change / name).read_bytes():
            continue
        elif name.endswith(".trials.jsonl"):
            print(f"differs: {name}: {describe_trials(parent / name, change / name)}")
        else:
            print(f"differs: {name}")
        differing += 1
    print(f"{differing} of {len(old | new)} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
