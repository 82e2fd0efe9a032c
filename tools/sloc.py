"""Count the source lines of each module under src/.

    python3 tools/sloc.py [root]

A line counts when it is neither blank nor a comment: docstrings count, as
does code followed by a comment.  Prints one line per module, its path
relative to src/ and its count, then the total.  root defaults to the
repository holding this script.
"""

from __future__ import annotations

import sys
from pathlib import Path


def sloc(text: str) -> int:
    """Non-blank lines that are not comment lines."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    src = root / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        count = sloc(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(src).as_posix()} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
