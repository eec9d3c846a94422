#!/usr/bin/env python3
"""Public functions that no other file names, or only tests name.

Prints two lists for a reader to judge and always exits 0:

1. `path: name` for every `pub fn` in a tracked `*.rs` file outside
   `vendor/` whose name appears as a whole word in no other tracked `.rs`
   file: candidates for deletion. A function called only from its own
   file (or its own unit tests) is listed.
2. Under its own header, every such `pub fn` whose name other files do
   use, but only files under a `tests/` directory: API that only tests
   exercise, candidates for deletion together with those tests or for
   narrowing.

The scan is by name, not by path, so it misses a dead function whose
name another file uses for something else: a common name such as `ball`,
`new` or `len`. `traversal::ball` was one.

Usage: python3 scripts/pub_callers.py   (from the repository root)
"""

import re
import subprocess
from collections import defaultdict

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+)*fn\s+(\w+)", re.M)
WORD = re.compile(r"\b\w+\b")


def under_tests(path: str) -> bool:
    return "tests" in path.split("/")[:-1]


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
    test_only = []
    for path, text in sorted(texts.items()):
        if path.startswith("vendor/"):
            continue
        for name in PUB_FN.findall(text):
            others = files_naming[name] - {path}
            if not others:
                print(f"{path}: {name}")
            elif all(under_tests(other) for other in others):
                test_only.append(f"{path}: {name}")
    print()
    print("# pub fns that other files name only under tests/ directories")
    for line in test_only:
        print(line)
    return 0


if __name__ == "__main__":
    main()
