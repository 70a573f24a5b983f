"""Output checks that do not rely on the program's own logic.

Counts are compared with what the generator emitted (``gen.Truth``), and
communities are checked against a tau-graph this module recomputes from the
generator's usage vectors with exact integer arithmetic. Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from collections import Counter
from fractions import Fraction

from gen import Truth


def parse_counts(log_path: str, truth: Truth) -> list[str]:
    """Lines and rejects per reason, counted through ``clf.parse_stream``.

    ``cli.cmd_cluster`` drops these counts, so they are taken here, from
    outside the program, over the same input file.
    """
    from commdir import clf

    lines = 0
    rejects: Counter = Counter()
    with clf.open_log(log_path) as f:
        for outcome in clf.parse_stream(f):
            lines += 1
            if not outcome.ok:
                rejects[outcome.result.reason.value] += 1
    problems = []
    if lines != truth.lines:
        problems.append(f"parsed {lines} lines, generator wrote {truth.lines}")
    for reason in sorted(set(rejects) | set(truth.rejects)):
        if rejects[reason] != truth.rejects.get(reason, 0):
            problems.append(f"{rejects[reason]} {reason} rejects, generator injected "
                            f"{truth.rejects.get(reason, 0)}")
    return problems


def parse_summary(stdout: str, truth: Truth) -> list[str]:
    """The ``commdir parse`` summary line against the generator's counts."""
    errors = sum(truth.rejects.values())
    expected = f"{truth.lines} lines, {truth.lines - errors} records, {errors} errors"
    if errors:
        expected += " (" + ", ".join(f"{r}: {n}" for r, n in sorted(truth.rejects.items())) + ")"
    got = stdout.strip()
    return [] if got == expected else [f"parse summary {got!r}, expected {expected!r}"]


def read_members(out_dir: str) -> list[tuple[str, ...]]:
    """Member tuples of the emitted communities, in file order."""
    members = []
    for path in sorted(glob.glob(os.path.join(out_dir, "community-*.json"))):
        with open(path, encoding="utf-8") as f:
            members.append(tuple(json.load(f)["members"]))
    return members


def read_vectors(out_dir: str) -> dict[str, dict[str, int]]:
    vectors: dict[str, dict[str, int]] = {}
    with open(os.path.join(out_dir, "usage-vectors.tsv"), encoding="utf-8") as f:
        for line in f:
            user, category, n = line.rstrip("\n").split("\t")
            vectors.setdefault(user, {})[category] = int(n)
    return vectors


def digest(out_dir: str) -> str:
    """Hash of the member lists and ``usage-vectors.tsv``: equal across a set."""
    h = hashlib.sha256()
    for members in read_members(out_dir):
        h.update(("\t".join(members) + "\n").encode("utf-8"))
    with open(os.path.join(out_dir, "usage-vectors.tsv"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def tau_graph(vectors: dict[str, dict[str, int]], tau: Fraction) -> dict[str, set[str]]:
    """Users adjacent when the cosine of their vectors is at least tau.

    cos >= tau  <=>  dot^2 >= tau^2 * |u|^2 * |v|^2  (dot >= 0), in integers.
    """
    users = sorted(vectors)
    norms = {u: sum(n * n for n in vectors[u].values()) for u in users}
    num, den = tau.numerator ** 2, tau.denominator ** 2
    adj: dict[str, set[str]] = {u: set() for u in users}
    for i, u in enumerate(users):
        a = vectors[u]
        for v in users[i + 1:]:
            b = vectors[v]
            dot = sum(n * b[k] for k, n in a.items() if k in b)
            if dot * dot * den >= num * norms[u] * norms[v]:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def maximal_cliques(adj: dict[str, set[str]]) -> set[frozenset[str]]:
    """Every maximal clique: Bron-Kerbosch with a Tomita pivot, iteratively."""
    found = set()
    stack = [(frozenset(), set(adj), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            found.add(r)
            continue
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)
    return found


def cliques(members: list[tuple[str, ...]], adj: dict[str, set[str]],
            keep_singletons: bool, min_size: int = 2) -> list[str]:
    """Each community is a maximal clique, and none is missing.

    Communities are the maximal cliques of at least ``min_size`` users,
    plus isolated users with ``keep_singletons``, as ``commdir cluster``
    documents; the full set is enumerated here independently.
    """
    problems = []
    seen: set[tuple[str, ...]] = set()
    for i, group in enumerate(members, 1):
        if group in seen:
            problems.append(f"community {i} repeats an earlier one")
        seen.add(group)
        unknown = [u for u in group if u not in adj]
        if unknown:
            problems.append(f"community {i} has unknown users {unknown[:3]}")
            continue
        apart = [(u, v) for j, u in enumerate(group) for v in group[j + 1:] if v not in adj[u]]
        if apart:
            problems.append(f"community {i} is not a clique: {apart[0][0]} and "
                            f"{apart[0][1]} are not adjacent")
        common = set.intersection(*(adj[u] for u in group)) - set(group)
        if common:
            problems.append(f"community {i} is not maximal: {sorted(common)[0]} "
                            "is adjacent to all its members")
    expected = {c for c in maximal_cliques(adj)
                if len(c) >= min_size or (keep_singletons and len(c) == 1)}
    missing = expected - {frozenset(group) for group in members}
    if missing:
        problems.append(f"{len(missing)} of {len(expected)} maximal cliques are missing")
    return problems


def outputs(out_dir: str, truth: Truth, tau: str, keep_singletons: bool,
            check_cliques: bool) -> list[str]:
    """Full check of one ``commdir cluster`` output directory."""
    problems = []
    vectors = read_vectors(out_dir)
    totals = {u: sum(c.values()) for u, c in vectors.items()}
    if len(vectors) != len(truth.user_totals):
        problems.append(f"{len(vectors)} users, generator emitted {len(truth.user_totals)}")
    if sum(totals.values()) != truth.kept:
        problems.append(f"{sum(totals.values())} kept hits, generator emitted {truth.kept}")
    if totals != truth.user_totals:
        problems.append("per-user hit totals differ from the generator's")
    if truth.vectors is not None and vectors != truth.vectors:
        problems.append("usage vectors differ from the generator's categories")
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    members = read_members(out_dir)
    if report["user_count"] != len(truth.user_totals):
        problems.append(f"report.json user_count {report['user_count']}")
    if report["community_count"] != len(members):
        problems.append(f"report.json counts {report['community_count']} communities, "
                        f"{len(members)} files")
    if check_cliques:
        problems += cliques(members, tau_graph(truth.vectors, Fraction(tau)), keep_singletons)
    return problems
