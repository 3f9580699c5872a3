#!/usr/bin/env python3
"""Line counts of each module of src/qinterp, for the working tree and a git revision.

    python3 tools/loc.py [REV]

Prints, per module and in total, its lines and its code lines: lines that
hold some token other than a comment, a docstring or a blank.  A docstring
is any string literal that stands as a statement of its own.  Counting goes
through ``tokenize``, so a line is code however its strings and brackets
are split.  Given REV, the same counts for REV, extracted with ``git
archive``, come first, and a difference column (working tree minus REV)
follows each count.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qinterp"
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: bytes) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    tokens = [tok for tok in tokenize.tokenize(io.BytesIO(source).readline) if tok.type != tokenize.COMMENT]
    code = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        statement_start = i == 0 or tokens[i - 1].type in _LAYOUT
        statement_end = i + 1 == len(tokens) or tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type == tokenize.STRING and statement_start and statement_end:
            continue  # a docstring
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def tree_counts() -> dict[str, tuple[int, int]]:
    return {path.name: count(path.read_bytes()) for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision_counts(rev: str) -> dict[str, tuple[int, int]]:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, PACKAGE], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        members = sorted((m for m in tar.getmembers() if m.isfile() and m.name.endswith(".py")), key=lambda m: m.name)
        return {Path(m.name).name: count(tar.extractfile(m).read()) for m in members}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: tools/loc.py [REV]", file=sys.stderr)
        return 2
    work = tree_counts()
    if not argv:
        print(f"{'module':<16}{'lines':>7}{'code':>7}")
        for name, (lines, code) in [*work.items(), ("total", tuple(map(sum, zip(*work.values()))))]:
            print(f"{name:<16}{lines:>7}{code:>7}")
        return 0
    rev = revision_counts(argv[0])
    print(f"lines and code lines at {argv[0]}, in the working tree, and their difference")
    print(f"{'module':<16}{'lines':>7}{'work':>7}{'diff':>7}{'code':>7}{'work':>7}{'diff':>7}")
    rows = [(name, rev.get(name, (0, 0)), work.get(name, (0, 0))) for name in sorted(rev.keys() | work.keys())]
    rows.append(("total", tuple(map(sum, zip(*rev.values()))), tuple(map(sum, zip(*work.values())))))
    for name, (old_lines, old_code), (lines, code) in rows:
        print(f"{name:<16}{old_lines:>7}{lines:>7}{lines - old_lines:>+7}{old_code:>7}{code:>7}{code - old_code:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
