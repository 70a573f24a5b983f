"""Benefit measures for community directories versus the full taxonomy.

Shrinkage says how small the pruned directory is; coverage says how much of
the community's classified traffic it still reaches. Unclassified
(``unspecified``) hits can never appear in a directory, so they are kept out
of coverage's denominator and reported as their own fraction instead.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Iterable, Sequence

from .classify import UNSPECIFIED, UsageVector
from .community import Community, CommunityDirectory
from .taxonomy import Taxonomy


def shrinkage(full: Taxonomy, cdir: CommunityDirectory) -> float:
    """|selected| / |full taxonomy|."""
    for path in cdir.selected:
        if path not in full:
            raise ValueError(f"selected category not in taxonomy: {path!r}")
    return len(cdir.selected) / len(full)


def coverage(cdir: CommunityDirectory, community: Community) -> float:
    """Fraction of the community's classified hits landing in the directory.

    1.0 when the community has no classified (non-unspecified) hits at all.
    """
    classified = community.total - community.profile.get(UNSPECIFIED, 0)
    if classified == 0:
        return 1.0
    selected = cdir.selected
    inside = sum(n for cat, n in community.profile.items()
                 if cat != UNSPECIFIED and cat in selected)
    return inside / classified


def unspecified_fraction(community: Community) -> float:
    if community.total == 0:
        return 0.0
    return community.profile.get(UNSPECIFIED, 0) / community.total


def build_report(full: Taxonomy, directories: Sequence[CommunityDirectory],
                 vectors: Iterable[UsageVector],
                 parameters: dict | None = None) -> dict:
    """Structured mining report: per-community rows, overlap, averages.

    ``overlap`` lists ``[i, j, n]`` for every pair of communities (1-based
    ids, i < j) that share n > 0 members, sorted; it grows with the shared
    memberships, not with the square of the community count. A community's
    overlap with itself is its ``member_count``. The list is written only
    to ``report.json``; ``report_text`` gives its length. Ordering follows
    the (already canonical) directory order, so the report is deterministic
    for equal inputs.
    """
    vectors = list(vectors)
    rows = []
    for i, cdir in enumerate(directories, 1):
        com = cdir.community
        rows.append({
            "id": i,
            "members": list(com.members),
            "member_count": len(com.members),
            "total_hits": com.total,
            "selected_count": len(cdir.selected),
            "shrinkage": shrinkage(full, cdir),
            "coverage": coverage(cdir, com),
            "unspecified_fraction": unspecified_fraction(com),
        })
    communities_of: dict[str, list[int]] = {}
    for row in rows:
        for member in row["members"]:
            communities_of.setdefault(member, []).append(row["id"])
    # Ids are appended in increasing order, so every pair has i < j.
    shared = Counter(pair for ids in communities_of.values()
                     for pair in itertools.combinations(ids, 2))
    n = len(rows)
    total_hits = sum(v.total for v in vectors)
    unspecified_hits = sum(v.counts.get(UNSPECIFIED, 0) for v in vectors)
    averages = {
        "shrinkage": sum(r["shrinkage"] for r in rows) / n if n else None,
        "coverage": sum(r["coverage"] for r in rows) / n if n else None,
        "global_unspecified_fraction":
            unspecified_hits / total_hits if total_hits else 0.0,
    }
    return {
        "parameters": dict(sorted((parameters or {}).items())),
        "taxonomy_categories": len(full),
        "user_count": len(vectors),
        "community_count": n,
        "zero_communities": n == 0,
        "communities": rows,
        "overlap": [[i, j, count] for (i, j), count in sorted(shared.items())],
        "averages": averages,
    }


def report_text(report: dict) -> str:
    """Human-readable rendering of build_report output.

    One line per community plus a fixed header and footer. The overlap is
    summarised in one line, its pair count, since ``report_json`` already
    lists the pairs: the text grows with the communities, not with the
    pairs that overlap.
    """
    lines = ["community directory report", ""]
    if report["parameters"]:
        lines.append("parameters:")
        for key, value in report["parameters"].items():
            lines.append(f"  {key} = {value}")
        lines.append("")
    lines.append(f"taxonomy categories: {report['taxonomy_categories']}")
    lines.append(f"users: {report['user_count']}")
    lines.append(f"communities: {report['community_count']}")
    if report["zero_communities"]:
        lines.append("zero communities found; no directories emitted")
        return "\n".join(lines) + "\n"
    lines.append("")
    header = f"{'id':>4} {'members':>8} {'hits':>8} {'selected':>9} " \
             f"{'shrinkage':>10} {'coverage':>9} {'unspec':>8}"
    lines.append(header)
    for row in report["communities"]:
        lines.append(
            f"{row['id']:>4} {row['member_count']:>8} {row['total_hits']:>8}"
            f" {row['selected_count']:>9} {row['shrinkage']:>10.4f}"
            f" {row['coverage']:>9.4f} {row['unspecified_fraction']:>8.4f}")
    avg = report["averages"]
    lines.append("")
    lines.append(f"average shrinkage: {avg['shrinkage']:.4f}")
    lines.append(f"average coverage: {avg['coverage']:.4f}")
    lines.append(f"global unspecified fraction: {avg['global_unspecified_fraction']:.4f}")
    if report["overlap"]:
        lines.append("")
        lines.append(f"shared members: {len(report['overlap'])} pairs of communities;"
                     ' report.json lists them under "overlap"')
    return "\n".join(lines) + "\n"


def report_json(report: dict) -> str:
    """Compact one-line JSON: unindented, so the C encoder renders it, and
    without the blank after each ``,`` and ``:``."""
    return json.dumps(report, separators=(",", ":")) + "\n"
