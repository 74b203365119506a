"""Every function, method and class defined in ``src/repro`` is used.

A name defined by a ``def`` or ``class`` statement in the package must
appear as a word somewhere in the source, tests, perfbench, benchmarks,
scripts or examples more often than it is defined there. A definition that
is only ever referenced at its own ``def`` line is dead code. Dunder
methods are exempt: the language calls them. There is no allowlist.
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench", "benchmarks", "scripts", "examples")
DEFINITION = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+([A-Za-z_]\w*)", re.M)
WORD = re.compile(r"[A-Za-z_]\w*")


def _sources(top):
    return [path.read_text() for path in sorted((ROOT / top).rglob("*.py"))]


def test_every_definition_is_referenced():
    words = Counter()
    definitions = Counter()
    for top in SCANNED:
        for text in _sources(top):
            words.update(WORD.findall(text))
            definitions.update(DEFINITION.findall(text))
    package = Counter()
    for text in _sources("src/repro"):
        package.update(DEFINITION.findall(text))
    dead = sorted(
        name
        for name in package
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= definitions[name]
    )
    assert not dead, f"defined but never referenced: {dead}"
