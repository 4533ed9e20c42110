"""Seeded inputs for the repository benchmark.

Every input is one of the repository's benchmark manifests
(`benchmarks/`, `benchmarks-metadata/`) put through a seeded rewrite that
cannot change its verdict, so the answers pinned in
`rehearsal::benchmarks` still hold for every seed:

* `Renamer` renames `content => '...'` literals consistently (every
  occurrence of one literal gets the same new literal) and injectively
  (distinct literals never merge). The analyses only compare contents for
  equality, so the verdict carries over while digests, cache keys and
  memo keys change with the seed.
* `comment_edit` inserts a comment line and `reformat_edit` re-indents:
  same catalog, new source text.
* `unique_literal_edit` renames one content literal that occurs exactly
  once in the manifest: same verdict, new graph digest.
* Reverting is restoring an earlier text, which callers keep.
"""

import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

CONTENT = re.compile(r"(content\s*=>\s*)'([^'\\]*)'")
ALNUM = string.ascii_lowercase + string.digits


@dataclass(frozen=True)
class Manifest:
    """One benchmark manifest: its pinned name, text, and model flag."""

    name: str
    text: str
    metadata: bool


def suite(root):
    """The 19 `benchmarks/` manifests, then the 6 `benchmarks-metadata/`
    ones (checked with the metadata model on), in name order."""
    out = []
    for sub, metadata in (("benchmarks", False), ("benchmarks-metadata", True)):
        for path in sorted(Path(root, sub).glob("*.pp")):
            out.append(Manifest(path.stem, path.read_text(), metadata))
    return out


class Renamer:
    """A consistent, injective renaming of content literals."""

    def __init__(self, rng, used=None):
        self.rng = rng
        self.mapping = {}
        # Literals handed out so far; renamers that share it never collide.
        self.used = set() if used is None else used

    def fresh(self, like):
        """A literal never handed out before, shaped like `like` (same
        length, same punctuation and spacing)."""
        new = "".join(self.rng.choice(ALNUM) if c.isalnum() else c for c in like)
        while new in self.used or not new.strip():
            new += self.rng.choice(ALNUM)
        self.used.add(new)
        return new

    def literal(self, old):
        if old not in self.mapping:
            self.mapping[old] = self.fresh(old)
        return self.mapping[old]

    def rename(self, text):
        return CONTENT.sub(lambda m: f"{m.group(1)}'{self.literal(m.group(2))}'", text)


def literals(text):
    return [m.group(2) for m in CONTENT.finditer(text)]


def comment_edit(text, rng, tag):
    """Insert `# edit <tag>` at a seeded line boundary."""
    lines = text.split("\n")
    lines.insert(rng.randrange(len(lines) + 1), f"# edit {tag}")
    return "\n".join(lines)


def reformat_edit(text, rng):
    """Re-indent every indented line to a seeded width other than the
    current one, so the text always changes."""
    current = re.search(r"^( +)\S", text, re.MULTILINE)
    widths = [w for w in (1, 2, 3, 4, 6, 8) if not current or w != len(current.group(1))]
    indent = " " * rng.choice(widths)
    return re.sub(r"^ +", indent, text, flags=re.MULTILINE)


def unique_literal_edit(text, rng, renamer):
    """Rename one content literal that occurs exactly once in `text` to a
    fresh literal, or return None when there is none."""
    found = literals(text)
    once = sorted({lit for lit in found if found.count(lit) == 1})
    if not once:
        return None
    old = rng.choice(once)
    new = renamer.fresh(old)
    return CONTENT.sub(
        lambda m: f"{m.group(1)}'{new}'" if m.group(2) == old else m.group(0), text
    )


def seeded(seed, *labels):
    """An independent random stream for one purpose under one seed."""
    return random.Random("/".join([str(seed), *map(str, labels)]))
