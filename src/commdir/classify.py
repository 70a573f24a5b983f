"""Map page references onto taxonomy categories; aggregate per-user usage vectors.

A page of a site that the taxonomy lists, as the last segment of a category
path (``Top/News/www.example.com``), lands in that category, the deepest
such one, then the lexicographically smallest. Every other page, local
pages included, lands in the deepest category whose keyword set shares a
token with the page's tokens (ties: larger overlap, then lexicographically
smallest path); pages matching nothing land in the ``unspecified`` bucket.
So under an artificial taxonomy, which lists each site under its cluster,
a site's pages go to its own node. Usage vectors count hits per category
for one user, identified as ``authuser@host`` when an authenticated user
was logged, else ``host``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    """Category path for a page reference: its listed site's category, else
    the best keyword match, else UNSPECIFIED."""
    listed = tax.site_index.get(ref.site)
    if listed is not None:
        return listed
    index = tax.keyword_index
    overlap: dict[str, int] = {}
    for token in tokenize(ref):  # distinct tokens; multiplicity does not matter here
        for path in index.get(token, ()):
            overlap[path] = overlap.get(path, 0) + 1
    return min(overlap, key=lambda p: (-depth(p), -overlap[p], p), default=UNSPECIFIED)


def count_usage(hits: Mapping[tuple[str, str], int], pages: Mapping[str, PageRef],
                tax: Taxonomy) -> list[UsageVector]:
    """One usage vector per distinct user, sorted by user id, from the hit
    count of each (user, resource) pair and the PageRef of each resource.

    Each hit counts to its page's category, or to UNSPECIFIED. Each distinct
    resource is classified once, from ``pages``: ``cli._read_input`` builds it.
    """
    category = {resource: classify_page(ref, tax) for resource, ref in pages.items()}
    per_user: dict[str, dict[str, int]] = {}
    for (user, resource), n in hits.items():
        counts = per_user.setdefault(user, {})
        path = category[resource]
        counts[path] = counts.get(path, 0) + n
    return [
        UsageVector(user, dict(sorted(counts.items())), sum(counts.values()))
        for user, counts in sorted(per_user.items())
    ]


def build_usage_vectors(records: Iterable[LogRecord], tax: Taxonomy) -> list[UsageVector]:
    """``count_usage`` over policy-filtered records, one hit per record."""
    hits = Counter((user_key(rec), rec.resource) for rec in records)
    pages = {r: extract_page_ref(r) for r in dict.fromkeys(r for _, r in hits)}
    return count_usage(hits, pages, tax)


def usage_vectors_tsv(vectors: Iterable[UsageVector]) -> str:
    """Inspection dump: one ``user<TAB>category<TAB>count`` triple per line."""
    lines = []
    for vec in sorted(vectors, key=lambda v: v.user):
        for category, count in sorted(vec.counts.items()):
            lines.append(f"{vec.user}\t{category}\t{count}")
    return "\n".join(lines) + ("\n" if lines else "")
