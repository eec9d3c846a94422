#!/usr/bin/env python3
"""Public functions that no other file names: candidates for deletion.

Prints `path: name` for every `pub fn` in a tracked `*.rs` file outside
`vendor/` whose name appears as a whole word in no other tracked `.rs`
file. It prints a list for a reader to judge and always exits 0.

The scan is by name, not by path, so it misses a dead function whose
name another file uses for something else: a common name such as `ball`,
`new` or `len`. `traversal::ball` was one. A function called only from
its own file (or its own unit tests) is listed.

Usage: python3 scripts/pub_callers.py   (from the repository root)
"""

import re
import subprocess
from collections import defaultdict

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+)*fn\s+(\w+)", re.M)
WORD = re.compile(r"\b\w+\b")


def main() -> int:
    listed = subprocess.run(
        ["git", "ls-files", "*.rs"], capture_output=True, text=True, check=True
    )
    texts = {}
    for path in listed.stdout.split():
        with open(path, encoding="utf-8") as fh:
            texts[path] = fh.read()
    files_naming = defaultdict(set)
    for path, text in texts.items():
        for word in set(WORD.findall(text)):
            files_naming[word].add(path)
    for path, text in sorted(texts.items()):
        if path.startswith("vendor/"):
            continue
        for name in PUB_FN.findall(text):
            if not files_naming[name] - {path}:
                print(f"{path}: {name}")
    return 0


if __name__ == "__main__":
    main()
