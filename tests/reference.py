"""A reference ``commdir cluster`` for tiny logs, with ``--taxonomy`` or
``--artificial``, written from the definitions rather than from the program.

Only the log reader, ``clf.open_log`` and ``clf.parse_stream``, is shared
with ``src/``: everything after it (page references, the artificial
taxonomy, classification, usage vectors, the similarity graph, maximal
cliques, pruned directories and the report) is restated here in its plainest
form. A page of a site that the taxonomy lists, as a path's last segment,
is classified by that listing, and any other page by its keywords. Edges are
decided exactly, in integers: cos(a, b) >= tau holds iff
dot² · den >= num · |a|² · |b|², where num/den is tau squared and tau is the
decimal text given to ``--tau`` (so "0.4" means 2/5). Cliques are found by
trying every subset of users, so a log may have at most 8 users.

The artificial taxonomy clusters the sites by single linkage over every
pair of sites: two sites are linked when the Jaccard similarity of their
token sets reaches sigma, decided exactly as inter · den >= num · union for
sigma = num/den, and two sites without tokens have Jaccard 1.

``cluster`` returns the outputs a run should write, keyed by file name:
``report.json`` and ``community-NNN.json`` as parsed JSON values,
``usage-vectors.tsv``, ``communities.txt`` and ``artificial-taxonomy.tsv`` as
text.
"""

import itertools
import math
import re
from fractions import Fraction

from commdir import clf

UNSPECIFIED = "unspecified"
MAX_USERS = 8
KEYWORDS_PER_CATEGORY = 5


def read_log(path):
    """The records of a CLF log, and {reason: count} of the lines rejected."""
    records, errors = [], {}
    with clf.open_log(path) as f:
        for outcome in clf.parse_stream(f):
            if outcome.ok:
                records.append(outcome.result)
            else:
                reason = outcome.result.reason.value
                errors[reason] = errors.get(reason, 0) + 1
    return records, errors


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


def split_resource(resource):
    """(site or None, directories, page) of a logged resource: query dropped,
    lowercased, the first segment the site when it is a hostname."""
    path = resource.split("?")[0].split("#")[0].lower()
    while path.startswith("/"):
        path = path[1:]
    segments = path.split("/")
    site = None
    if is_hostname(segments[0]):
        site, segments = segments[0], segments[1:]
    return site, segments[:-1], segments[-1] if segments else ""


def page_tokens(resource):
    """The tokens of a logged resource, with repeats: the site's labels less a
    leading "www" and the last label, the directories, and the page name
    less its extension."""
    site, directories, page = split_resource(resource)
    labels = site.split(".") if site else []
    if labels[:1] == ["www"]:
        labels = labels[1:]
    stem = page.rsplit(".", 1)[0]
    return re.findall("[a-z0-9]+", " ".join(labels[:-1] + directories + [stem]))


def classify(resource, taxonomy):
    """A page of a site that a category is named after (its path's last
    segment) goes to the deepest such category, then the smaller path. Any
    other page goes to the deepest category sharing a keyword with it; ties
    go to the larger overlap, then the smaller path. UNSPECIFIED when none
    shares one."""
    site = split_resource(resource)[0]
    listed = [(-path.count("/"), path) for path in taxonomy if path.split("/")[-1] == site]
    if listed:
        return min(listed)[1]
    tokens = set(page_tokens(resource))
    matches = [(-path.count("/"), -len(tokens & keywords), path)
               for path, (keywords, _) in taxonomy.items() if tokens & keywords]
    return min(matches)[2] if matches else UNSPECIFIED


def top_tokens(counts):
    """The five most frequent tokens, ties going to the smaller token."""
    ranked = sorted(counts, key=lambda token: (-counts[token], token))
    return ranked[:KEYWORDS_PER_CATEGORY]


def similar_sites(a, b, sigma):
    """Jaccard(a, b) >= sigma, decided in integers; two empty sets have Jaccard 1."""
    inter, union = len(a & b), len(a | b)
    if not union:
        return 1 >= sigma
    return inter * sigma.denominator >= sigma.numerator * union


def artificial_taxonomy(records, sigma):
    """The text of the taxonomy that ``--artificial`` builds from ``records``.

    Each site's tokens are those of its pages, counted once per hit. Single
    linkage puts two sites in one cluster when a chain of similar sites joins
    them. The clusters are Top/Cluster-1, Top/Cluster-2, ..., numbered by
    descending hits, ties going to the cluster whose smallest site is
    smaller; each site is a child of its cluster. A cluster's keywords are
    the top tokens of its sites' summed counts, a site's those of its own.
    No weight is written, so each takes its depth default."""
    hits, tokens = {}, {}
    for rec in records:
        site = split_resource(rec.resource)[0]
        if site is None:
            continue
        hits[site] = hits.get(site, 0) + 1
        counts = tokens.setdefault(site, {})
        for token in page_tokens(rec.resource):
            counts[token] = counts.get(token, 0) + 1
    cluster_of = {site: frozenset([site]) for site in hits}
    for a, b in itertools.combinations(sorted(hits), 2):
        if similar_sites(set(tokens[a]), set(tokens[b]), sigma):
            merged = cluster_of[a] | cluster_of[b]
            for site in merged:
                cluster_of[site] = merged
    clusters = sorted(set(cluster_of.values()),
                      key=lambda c: (-sum(hits[site] for site in c), min(c)))
    keywords = {"Top": []}
    for k, members in enumerate(clusters, 1):
        summed = {}
        for site in members:
            for token, n in tokens[site].items():
                summed[token] = summed.get(token, 0) + n
        keywords[f"Top/Cluster-{k}"] = top_tokens(summed)
        for site in members:
            keywords[f"Top/Cluster-{k}/{site}"] = top_tokens(tokens[site])
    return "".join(f"{path}\t{','.join(sorted(keywords[path]))}".rstrip("\t") + "\n"
                   for path in sorted(keywords, key=lambda p: p.split("/")))


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


def cluster(log_path, taxonomy_text, tau, theta, min_size, keep_singletons, sigma=None):
    """The outputs of ``commdir cluster LOG --taxonomy TAX --tau TAU --theta
    THETA --min-size MIN_SIZE [--keep-singletons]`` under the default
    policy (GET, status 2xx), or, given ``sigma`` (and no ``taxonomy_text``),
    of ``--artificial --sigma SIGMA`` in place of ``--taxonomy``. ``tau``,
    ``theta`` and ``sigma`` are the flags' text."""
    records, errors = read_log(log_path)
    kept = [r for r in records if r.method == "GET" and 200 <= r.status <= 299]
    outputs = {}
    if sigma is not None:
        taxonomy_text = outputs["artificial-taxonomy.tsv"] = \
            artificial_taxonomy(kept, Fraction(sigma))
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
    parameters = {
        "keep_singletons": keep_singletons, "min_size": min_size,
        "policy_methods": "GET", "policy_status": "2", "tau": float(tau),
        "taxonomy_source": "file", "theta": float(theta)}
    if sigma is not None:
        parameters.update(taxonomy_source="artificial", sigma=float(sigma))
    outputs["report.json"] = {
        "parameters": parameters,
        "taxonomy_categories": len(taxonomy),
        "user_count": len(users),
        "community_count": n,
        "zero_communities": n == 0,
        "communities": rows,
        "overlap": [[a["id"], b["id"], len(set(a["members"]) & set(b["members"]))]
                    for a, b in itertools.combinations(rows, 2)
                    if set(a["members"]) & set(b["members"])],
        "averages": {
            "shrinkage": math.fsum(r["shrinkage"] for r in rows) / n if n else None,
            "coverage": math.fsum(r["coverage"] for r in rows) / n if n else None,
            "global_unspecified_fraction": all_unspecified / all_hits if all_hits else 0.0},
        "parse_errors": dict(errors),
        "filtered_out": len(records) - len(kept),
    }
    outputs["usage-vectors.tsv"] = "".join(
        f"{user}\t{category}\t{count}\n"
        for user in users for category, count in sorted(vectors[user].items()))
    outputs["communities.txt"] = "\n".join(blocks)
    return outputs
