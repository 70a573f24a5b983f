"""Page-reference extraction from logged proxy resources.

In proxy-style logs the requested URL is logged as a path whose first
segment is the target site's hostname (``/www.example.com/a/b.html``).
This module splits such resources into site / directory segments / page,
and tokenizes a reference into the lowercase alphanumeric tokens used for
thematic classification and site clustering.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class PageRef:
    """Normalized page reference, query dropped; ``site`` is None for local (non-site) paths."""

    site: str | None
    directories: tuple[str, ...]
    page: str


_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
# Purely syntactic: >= 2 dot-separated labels of [a-z0-9-]. No TLD list,
# no DNS; misdetections land in site=None and are excluded from mining.
_HOSTNAME = re.compile(r"[a-z0-9-]+(?:\.[a-z0-9-]+)+\Z")


def strip_query(resource: str) -> str:
    """Drop everything from the first ``?`` or ``#`` on; percent-escapes stay."""
    return resource.partition("?")[0].partition("#")[0]


# Logs repeat resources heavily; a PageRef is frozen, so sharing one is safe.
@functools.lru_cache(maxsize=65536)
def extract_page_ref(resource: str) -> PageRef:
    """Split a logged resource into site, directories and page name.

    The first segment becomes the site iff it satisfies the hostname
    grammar; the last segment is the page ("" for directory URLs); segments
    in between are the directories. Everything is lowercased once here and
    the query stripped first. Leading slashes are dropped, so a bare "/"
    yields the empty local reference and "//a.com" names the site a.com.
    """
    path = strip_query(resource).lower().lstrip("/")
    segments = path.split("/")
    if _HOSTNAME.match(segments[0]):
        site, rest = segments[0], segments[1:]
    else:
        site, rest = None, segments
    if not rest:
        return PageRef(site, (), "")
    directories = tuple(s for s in rest[:-1] if s)
    return PageRef(site, directories, rest[-1])


def tokenize(ref: PageRef) -> Counter:
    """Token multiset of a reference: lowercase runs of [a-z0-9].

    Sources: site labels minus a leading ``www`` and minus the final
    suffix-like label, each directory segment, and the page stem with its
    extension removed. Only the last site label is treated as suffix, so
    ``co`` survives in ``google.co.in``.
    """
    labels = ref.site.lower().split(".") if ref.site else []
    if labels[:1] == ["www"]:
        labels = labels[1:]
    stem = ref.page.rsplit(".", 1)[0]
    text = " ".join([*labels[:-1], *ref.directories, stem]).lower()
    return Counter(filter(None, _TOKEN_SPLIT.split(text)))
