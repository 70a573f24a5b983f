"""A reference ``commdir cluster --taxonomy`` for tiny logs, written from the
definitions rather than from the program.

Only the log reader is shared with ``src/``: everything after it (page
references, classification, usage vectors, the similarity graph, maximal
cliques, pruned directories and the report) is restated here in its plainest
form. Edges are decided exactly, in integers: cos(a, b) >= tau holds iff
dot² · den >= num · |a|² · |b|², where num/den is tau squared and tau is the
decimal text given to ``--tau`` (so "0.4" means 2/5). Cliques are found by
trying every subset of users, so a log may have at most 8 users.

``cluster`` returns the outputs a run should write, keyed by file name:
``report.json`` and ``community-NNN.json`` as parsed JSON values,
``usage-vectors.tsv`` and ``communities.txt`` as text.
"""

import itertools
import re
from fractions import Fraction

from commdir.cli import read_records

UNSPECIFIED = "unspecified"
MAX_USERS = 8


def read_taxonomy(text):
    """{path: (keywords, weight)} of a taxonomy file holding ``path[\\tkw,kw[\\tweight]]``
    lines, with every missing ancestor added and each omitted weight set to
    depth / greatest depth."""
    given = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        keywords = {k.strip().lower() for k in cols[1].split(",") if k.strip()} if len(cols) > 1 else set()
        weight = float(cols[2]) if len(cols) > 2 and cols[2].strip() else None
        given[cols[0]] = (keywords, weight)
    paths = {"Top"}
    for path in given:
        segments = path.split("/")
        paths.update("/".join(segments[:i]) for i in range(1, len(segments) + 1))
    deepest = max(p.count("/") for p in paths)
    taxonomy = {}
    for path in paths:
        keywords, weight = given.get(path, (set(), None))
        if weight is None:
            weight = path.count("/") / deepest if deepest else 0.0
        taxonomy[path] = (keywords, weight)
    return taxonomy


def is_hostname(segment):
    """Two or more non-empty dot-separated labels, each of a-z, 0-9 and '-'."""
    labels = segment.split(".")
    return len(labels) >= 2 and all(
        label and all(c in "abcdefghijklmnopqrstuvwxyz0123456789-" for c in label)
        for label in labels)


def page_tokens(resource):
    """The distinct tokens of a logged resource: query dropped, lowercased; the
    site's labels less a leading "www" and the last label, the directories,
    and the page name less its extension."""
    path = resource.split("?")[0].split("#")[0].lower()
    while path.startswith("/"):
        path = path[1:]
    segments = path.split("/")
    labels = []
    if is_hostname(segments[0]):
        labels = segments[0].split(".")
        if labels[0] == "www":
            labels = labels[1:]
        labels = labels[:-1]
        segments = segments[1:]
    directories = segments[:-1]
    page = segments[-1] if segments else ""
    stem = page.rsplit(".", 1)[0]
    return set(re.findall("[a-z0-9]+", " ".join(labels + directories + [stem])))


def classify(resource, taxonomy):
    """The deepest category sharing a keyword with the page; ties go to the
    larger overlap, then the smaller path. UNSPECIFIED when none shares one."""
    tokens = page_tokens(resource)
    matches = [(-path.count("/"), -len(tokens & keywords), path)
               for path, (keywords, _) in taxonomy.items() if tokens & keywords]
    return min(matches)[2] if matches else UNSPECIFIED


def usage_vectors(records, taxonomy):
    """{user: {category: hits}}, a user being authuser@host, or host."""
    vectors = {}
    for rec in records:
        user = f"{rec.authuser}@{rec.host}" if rec.authuser else rec.host
        category = classify(rec.resource, taxonomy)
        counts = vectors.setdefault(user, {})
        counts[category] = counts.get(category, 0) + 1
    return vectors


def adjacent(a, b, tau):
    """cos(a, b) >= tau, decided in integers."""
    dot = sum(n * b.get(c, 0) for c, n in a.items())
    norm_a = sum(n * n for n in a.values())
    norm_b = sum(n * n for n in b.values())
    return dot * dot * tau.denominator ** 2 >= tau.numerator ** 2 * norm_a * norm_b


def maximal_cliques(users, edges):
    """Every maximal clique, found by trying every subset of users."""
    def is_clique(group):
        return all(frozenset(pair) in edges for pair in itertools.combinations(group, 2))

    cliques = [set(group) for k in range(1, len(users) + 1)
               for group in itertools.combinations(users, k) if is_clique(group)]
    return [c for c in cliques if not any(c < other for other in cliques)]


def subtree_hits(path, profile):
    return sum(n for category, n in profile.items()
               if category == path or category.startswith(path + "/"))


def directory(taxonomy, profile, total, theta):
    """{path: score} of the categories scoring at least theta, plus their
    ancestors; a category's score is its weight times the share of the
    community's hits inside its subtree."""
    scores = {path: weight * (subtree_hits(path, profile) / total)
              for path, (_, weight) in taxonomy.items()}
    selected = {}
    for path, score in scores.items():
        if score >= theta:
            segments = path.split("/")
            for i in range(1, len(segments) + 1):
                ancestor = "/".join(segments[:i])
                selected[ancestor] = scores[ancestor]
    return selected


def children(path, selected):
    """The selected children of ``path``, ordered by name."""
    kids = [p for p in selected if p.rsplit("/", 1)[0] == path and p != path]
    return sorted(kids, key=lambda p: p.rsplit("/", 1)[1])


def tree(path, selected):
    return {"path": path, "score": selected[path],
            "children": [tree(kid, selected) for kid in children(path, selected)]}


def text_tree(path, selected, level=0):
    lines = [f"{'  ' * level}{path}  {selected[path]:.6f}\n"]
    for kid in children(path, selected):
        lines += text_tree(kid, selected, level + 1)
    return lines


def cluster(log_path, taxonomy_text, tau, theta, min_size, keep_singletons):
    """The outputs of ``commdir cluster LOG --taxonomy TAX --tau TAU --theta
    THETA --min-size MIN_SIZE [--keep-singletons]`` under the default
    policy (GET, status 2xx). ``tau`` and ``theta`` are the flags' text."""
    records, errors = read_records(log_path)
    kept = [r for r in records if r.method == "GET" and 200 <= r.status <= 299]
    taxonomy = read_taxonomy(taxonomy_text)
    vectors = usage_vectors(kept, taxonomy)
    users = sorted(vectors)
    if len(users) > MAX_USERS:
        raise ValueError(f"{len(users)} users, more than {MAX_USERS}")

    exact_tau = Fraction(tau)
    edges = {frozenset((a, b)) for a, b in itertools.combinations(users, 2)
             if adjacent(vectors[a], vectors[b], exact_tau)}
    communities = sorted(tuple(sorted(c)) for c in maximal_cliques(users, edges)
                         if len(c) >= min_size or (keep_singletons and len(c) == 1))

    outputs = {}
    rows, blocks = [], []
    for i, members in enumerate(communities, 1):
        profile = {}
        for user in members:
            for category, n in vectors[user].items():
                profile[category] = profile.get(category, 0) + n
        total = sum(profile.values())
        selected = directory(taxonomy, profile, total, float(theta))
        stem = f"community-{i:03d}"
        outputs[stem + ".json"] = {
            "members": list(members), "theta": float(theta), "total_hits": total,
            "tree": tree("Top", selected) if selected else None}
        blocks.append(stem + "\n" + "".join(text_tree("Top", selected) if selected else []))
        unspecified = profile.get(UNSPECIFIED, 0)
        classified = total - unspecified
        inside = sum(n for category, n in profile.items() if category in selected)
        rows.append({
            "id": i, "members": list(members), "member_count": len(members),
            "total_hits": total, "selected_count": len(selected),
            "shrinkage": len(selected) / len(taxonomy),
            "coverage": inside / classified if classified else 1.0,
            "unspecified_fraction": unspecified / total})

    all_hits = sum(n for counts in vectors.values() for n in counts.values())
    all_unspecified = sum(counts.get(UNSPECIFIED, 0) for counts in vectors.values())
    n = len(rows)
    outputs["report.json"] = {
        "parameters": {
            "keep_singletons": keep_singletons, "min_size": min_size,
            "policy_methods": "GET", "policy_status": "2", "tau": float(tau),
            "taxonomy_source": "file", "theta": float(theta)},
        "taxonomy_categories": len(taxonomy),
        "user_count": len(users),
        "community_count": n,
        "zero_communities": n == 0,
        "communities": rows,
        "overlap": [[a["id"], b["id"], len(set(a["members"]) & set(b["members"]))]
                    for a, b in itertools.combinations(rows, 2)
                    if set(a["members"]) & set(b["members"])],
        "averages": {
            "shrinkage": sum(r["shrinkage"] for r in rows) / n if n else None,
            "coverage": sum(r["coverage"] for r in rows) / n if n else None,
            "global_unspecified_fraction": all_unspecified / all_hits if all_hits else 0.0},
        "parse_errors": dict(errors),
        "filtered_out": len(records) - len(kept),
    }
    outputs["usage-vectors.tsv"] = "".join(
        f"{user}\t{category}\t{count}\n"
        for user in users for category, count in sorted(vectors[user].items()))
    outputs["communities.txt"] = "\n".join(blocks)
    return outputs
