"""Thematic web-directory hierarchy (dmoz-style category tree).

A taxonomy is a rooted tree of categories identified by slash-separated
paths under ``Top``. Each category carries a keyword set used for page
classification and an informativeness weight in [0, 1]. Weights omitted in
the file default to depth / greatest depth (the root gets 0), so deeper, more
specific categories count as more informative unless overridden.

File format: UTF-8 text (a leading BOM is ignored), one category per line,
up to three tab-separated columns ``path<TAB>comma,separated,keywords<TAB>weight``
(columns 2-3 optional), ``#`` starts a comment line. Missing intermediate
ancestors are auto-created on load.

A taxonomy is a dict of path -> Category, not edited after construction;
edits build new values. It keeps its categories in tree order
(``preorder``), which every renderer lists them in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Mapping

ROOT = "Top"
# Deepest category path accepted; the JSON encoder nests two containers per
# directory level, so far deeper paths would meet Python's recursion limit.
MAX_DEPTH = 256


class TaxonomyError(ValueError):
    """A taxonomy file or entry that cannot form a valid taxonomy."""


def depth(path: str) -> int:
    return path.count("/")


def parent(path: str) -> str | None:
    """Parent path, or None for the root."""
    i = path.rfind("/")
    return None if i < 0 else path[:i]


def ancestors(path: str) -> list[str]:
    """Paths from the root down to the parent; empty for the root itself."""
    parts = path.split("/")
    return ["/".join(parts[:i]) for i in range(1, len(parts))]


def preorder(paths: Iterable[str]) -> list[str]:
    """Paths in tree order, depth-first with children in path order: sorted
    by segment lists, since as strings "Top/A-B" < "Top/A/x" ("-" < "/")."""
    return sorted(paths, key=lambda p: p.split("/"))


@dataclass(frozen=True)
class Category:
    """A category's keywords and weight; its path is its key in the taxonomy."""

    keywords: frozenset[str]
    weight: float
    # True when the weight came from the file/caller rather than the
    # depth default; not part of category identity.
    explicit_weight: bool = field(default=False, compare=False)


class Taxonomy(dict[str, Category]):
    """Rooted category tree: a dict of path -> Category in tree order."""

    def __init__(self, categories: Mapping[str, Category]):
        super().__init__((path, categories[path]) for path in preorder(categories))
        if ROOT not in self:
            raise TaxonomyError(f"taxonomy has no root category {ROOT!r}")
        for path in self:
            p = parent(path)
            if p is not None and p not in self:
                raise TaxonomyError(f"category {path!r} has no parent {p!r}")

    @cached_property
    def keyword_index(self) -> dict[str, tuple[str, ...]]:
        """keyword token -> paths of the categories carrying it, in tree order."""
        index: dict[str, list[str]] = {}
        for path, cat in self.items():
            for kw in cat.keywords:
                index.setdefault(kw, []).append(path)
        return {kw: tuple(ps) for kw, ps in index.items()}

    @cached_property
    def site_index(self) -> dict[str, str]:
        """last path segment -> the deepest category ending in it, then the smallest path.

        A category named after a site lists that site: ``Top/News/www.example.com``.
        """
        index: dict[str, str] = {}
        for path in sorted(self, key=lambda p: (-depth(p), p)):
            index.setdefault(path.rpartition("/")[2], path)
        return index


def _validate_path(path: str) -> None:
    if path != ROOT and not path.startswith(ROOT + "/"):
        raise TaxonomyError(f"category path must be rooted at {ROOT!r}: {path!r}")
    if any(not seg for seg in path.split("/")):
        raise TaxonomyError(f"category path has empty segment: {path!r}")
    if depth(path) > MAX_DEPTH:
        raise TaxonomyError(f"category path is {depth(path)} levels deep, more than {MAX_DEPTH}")


# Characters that end a field of the taxonomy file (a keyword also ends at a comma).
_BREAKS = frozenset("\t\r\n")
_KEYWORD_BREAKS = _BREAKS | {","}


def _field(kind: str, value: str, breaks: frozenset[str] = _BREAKS) -> str:
    """``value``, if it reads back unchanged from the file format."""
    if not value or value != value.strip() or not breaks.isdisjoint(value):
        raise TaxonomyError(f"{kind} is empty, has blanks at either end or holds one of "
                            f"{''.join(sorted(breaks))!r}: {value!r}")
    return value


def make_taxonomy(entries: Mapping[str, tuple[Iterable[str], float | None]]) -> Taxonomy:
    """Build a taxonomy from {path: (keywords, weight-or-None)}.

    Missing ancestors are created with empty keywords; None weights take the
    depth / greatest-depth default, recomputed over the completed tree. Paths
    (ancestors included) and keywords must read back from the file format:
    non-empty, no tab, CR or LF, no surrounding blanks, and no comma in a
    keyword.
    """
    filled: dict[str, tuple[Iterable[str], float | None]] = {ROOT: ((), None)}
    for path, entry in entries.items():
        _validate_path(path)
        for anc in ancestors(path):
            filled.setdefault(anc, ((), None))
        filled[path] = entry
    max_d = max(depth(p) for p in filled)
    cats: dict[str, Category] = {}
    for path, (keywords, weight) in filled.items():
        # Ancestors too: "Top/a /b" would create "Top/a ", which reads back as "Top/a".
        _field("category path", path)
        kwset = frozenset(_field("keyword", str(k), _KEYWORD_BREAKS).lower() for k in keywords)
        if weight is None:
            cats[path] = Category(kwset, depth(path) / max_d if max_d else 0.0)
        else:
            w = float(weight) or 0.0  # -0.0 becomes 0.0
            if not 0.0 <= w <= 1.0:
                raise TaxonomyError(f"weight for {path!r} outside [0, 1]: {weight!r}")
            cats[path] = Category(kwset, w, explicit_weight=True)
    return Taxonomy(cats)


def load_taxonomy(source: str | os.PathLike | IO[str]) -> Taxonomy:
    """Load a taxonomy file (path or open text stream)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8-sig") as f:
            return load_taxonomy(f)
    entries: dict[str, tuple[Iterable[str], float | None]] = {}
    for lineno, raw in enumerate(source, 1):
        line = raw.rstrip("\r\n")
        if not line or line.isspace() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) > 3:
            raise TaxonomyError(f"line {lineno}: more than 3 columns")
        path, keywords, weight = [c.strip() for c in cols] + [""] * (3 - len(cols))
        if not path:
            raise TaxonomyError(f"line {lineno}: empty category path")
        if path in entries:
            raise TaxonomyError(f"line {lineno}: duplicate path {path!r}")
        try:  # float() rejects the \x1c-\x1f that str.strip() drops: parse the column as written
            weight = float(cols[2]) if weight else None
        except ValueError:
            raise TaxonomyError(f"line {lineno}: bad weight {cols[2]!r}") from None
        entries[path] = (tuple(k.strip() for k in keywords.split(",") if k.strip()), weight)
    if not entries:
        raise TaxonomyError("taxonomy file has no categories")
    return make_taxonomy(entries)


def serialize_taxonomy(tax: Taxonomy) -> str:
    """Render in the file format, categories in tree order.

    Defaulted weights are omitted so they keep recomputing on reload;
    explicit weights are emitted with full float precision.
    """
    lines = []
    for path, cat in tax.items():
        kws = ",".join(sorted(cat.keywords))
        weight = repr(cat.weight) if cat.explicit_weight else ""
        lines.append(f"{path}\t{kws}\t{weight}".rstrip("\t"))
    return "\n".join(lines) + "\n"


def add_or_update_category(tax: Taxonomy, path: str, keywords: Iterable[str],
                           weight: float | None = None) -> Taxonomy:
    """New taxonomy with ``path`` inserted or its keywords/weight replaced.

    Ancestors are auto-created; depth-defaulted weights are recomputed
    across the whole tree (the default depends on max depth).
    """
    entries: dict[str, tuple[Iterable[str], float | None]] = {
        p: (c.keywords, c.weight if c.explicit_weight else None)
        for p, c in tax.items()
    }
    entries[path] = (tuple(keywords), weight)
    return make_taxonomy(entries)
