#!/usr/bin/env python3
"""List the library functions that no system run reached.

Reads the gcov data of one or more coverage builds (every object compiled
with ``--coverage``), merges the call counts of each function that the
library's own sources (``src/``, ``include/``) define, and reports the
demangled ``wivi::`` functions whose merged count is zero. Lambdas are
left out: their names are made up by the compiler.

One function is one entry however many objects hold a copy of it: an
inline function from a header is compiled into every translation unit
that uses it, and a build that compiles its own copy of the library (the
``wirebench/`` project does) holds a second copy of everything. A
function counts as reached when any copy in any tree recorded a call, so
pass every tree whose programs ran, or the report lists what only the
missing tree reached.

The report is a candidate list, not a verdict: error and overload paths
that no healthy run takes show up too.

Exit status: 0 after writing the report; 1 when no ``.gcda`` file exists
under any tree (nothing ran, so every function would read as unreached);
2 when gcov fails on an object.

Usage:
  python3 scripts/unreached.py build-cov build-cov-wb --out unreached.txt
"""
from __future__ import annotations

import argparse
import collections
import concurrent.futures
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GCOV_JOBS = 4  # gcov processes at once


def find_notes(tree: str) -> tuple[list[str], int]:
    """All .gcno files under `tree`, plus the number of .gcda files."""
    notes: list[str] = []
    data = 0
    for dirpath, _, files in os.walk(tree):
        for name in files:
            if name.endswith(".gcno"):
                notes.append(os.path.join(dirpath, name))
            elif name.endswith(".gcda"):
                data += 1
    return notes, data


def gcov_functions(note: str) -> list[tuple[str, dict]]:
    """(source path, function record) for every function of one object.

    An object without a .gcda file never ran; gcov then reports each of
    its functions with a zero count, which is what it means.
    """
    proc = subprocess.run(
        ["gcov", "--stdout", "--json-format", "--demangled-names",
         os.path.basename(note)],
        cwd=os.path.dirname(note), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("gcov failed on %s: %s" % (note, proc.stderr))
    out = []
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        cwd = doc.get("current_working_directory", "")
        for entry in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            for fn in entry["functions"]:
                out.append((path, fn))
    return out


def is_library_function(root: str, path: str, name: str) -> bool:
    rel = os.path.relpath(path, root)
    if not rel.startswith(("src" + os.sep, "include" + os.sep)):
        return False
    return name.startswith("wivi::") and "{lambda" not in name


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("trees", nargs="+",
                        help="coverage build directories to merge")
    parser.add_argument("--root", default=ROOT,
                        help="source tree whose src/ and include/ count "
                             "(default: this checkout)")
    parser.add_argument("--out", help="write the list here (default: stdout)")
    args = parser.parse_args()
    root = os.path.realpath(args.root)

    notes: list[str] = []
    data_files = 0
    for tree in args.trees:
        tree_notes, tree_data = find_notes(tree)
        notes += tree_notes
        data_files += tree_data
    if data_files == 0:
        print("unreached: no .gcda file under %s — did any program run?"
              % ", ".join(args.trees), file=sys.stderr)
        return 1

    calls: dict[tuple[str, int, str], int] = collections.defaultdict(int)
    with concurrent.futures.ThreadPoolExecutor(GCOV_JOBS) as pool:
        try:
            for functions in pool.map(gcov_functions, notes):
                for path, fn in functions:
                    path = os.path.realpath(path)
                    name = fn["demangled_name"]
                    if not is_library_function(root, path, name):
                        continue
                    key = (os.path.relpath(path, root), fn["start_line"], name)
                    calls[key] += fn["execution_count"]
        except RuntimeError as err:
            print("unreached: %s" % err, file=sys.stderr)
            return 2

    unreached = sorted(k for k, n in calls.items() if n == 0)
    lines = ["%s:%d  %s" % k for k in unreached]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    else:
        for line in lines:
            print(line)
    print("unreached: %d of %d wivi:: functions (%d objects, %d .gcda files, "
          "%d trees)" % (len(unreached), len(calls), len(notes), data_files,
                         len(args.trees)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
