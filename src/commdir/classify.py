"""Map page references onto taxonomy categories; aggregate per-user usage vectors.

A page lands in the deepest category whose keyword set shares a token with
the page's tokens (ties: larger overlap, then lexicographically smallest
path); pages matching nothing land in the ``unspecified`` bucket. Usage
vectors count hits per category for one user, identified as
``authuser@host`` when an authenticated user was logged, else ``host``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from .clf import LogRecord
from .taxonomy import Taxonomy, depth
from .urls import PageRef, extract_page_ref, tokenize

UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class UsageVector:
    """Per-user category hit counts; keys are taxonomy paths or UNSPECIFIED."""

    user: str
    counts: dict[str, int]
    total: int


def user_key(rec: LogRecord) -> str:
    return f"{rec.authuser}@{rec.host}" if rec.authuser else rec.host


def classify_page(ref: PageRef, tax: Taxonomy) -> str:
    """Category path for a page reference, or UNSPECIFIED on no keyword hit."""
    index = tax.keyword_index
    overlap: dict[str, int] = {}
    for token in tokenize(ref):  # distinct tokens; multiplicity does not matter here
        for path in index.get(token, ()):
            overlap[path] = overlap.get(path, 0) + 1
    if not overlap:
        return UNSPECIFIED
    return min(overlap, key=lambda p: (-depth(p), -overlap[p], p))


def build_usage_vectors(records: Iterable[LogRecord], tax: Taxonomy) -> list[UsageVector]:
    """One usage vector per distinct user, sorted by user id.

    Records should already be policy-filtered. Every record contributes one
    count: to its page's category, or to UNSPECIFIED. Each distinct resource
    is classified once.
    """
    category: dict[str, str] = {}
    per_user: dict[str, Counter] = defaultdict(Counter)
    for rec in records:
        resource = rec.resource
        if resource not in category:
            category[resource] = classify_page(extract_page_ref(resource), tax)
        per_user[user_key(rec)][category[resource]] += 1
    return [
        UsageVector(user, dict(sorted(counts.items())), sum(counts.values()))
        for user, counts in sorted(per_user.items())
    ]


def usage_vectors_tsv(vectors: Iterable[UsageVector]) -> str:
    """Inspection dump: one ``user<TAB>category<TAB>count`` triple per line."""
    lines = []
    for vec in sorted(vectors, key=lambda v: v.user):
        for category, count in sorted(vec.counts.items()):
            lines.append(f"{vec.user}\t{category}\t{count}")
    return "\n".join(lines) + ("\n" if lines else "")
