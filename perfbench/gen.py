"""Seeded input generators for the commdir benchmark workloads.

Each generator writes the files the program reads (an access log, and a
taxonomy when the workload uses a curated one) and returns a ``Truth``:
what the generator emitted, counted by the generator itself rather than by
the program. The same seed gives byte-identical files and an equal Truth.

Every classified page carries exactly one taxonomy keyword token (in its
directory segment) and no other keyword, so for curated taxonomies the
category of every kept hit is known here without running the classifier.
"""

from __future__ import annotations

import gzip
import json
import os
import random
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

UNSPECIFIED = "unspecified"

# Injected malformed lines, keyed by the ParseReason value they must raise.
# Each template breaks exactly one field; {h} is the host.
_MALFORMED = {
    "MalformedDate": '{h} - - [10/Foo/2000:13:55:36 -0700] "GET /bad.html HTTP/1.0" 200 10',
    "MalformedRequest": '{h} - - [10/Oct/2000:13:55:36 -0700] "GET /bad.html" 200 10',
    "BadStatus": '{h} - - [10/Oct/2000:13:55:36 -0700] "GET /bad.html HTTP/1.0" 2x0 10',
}
# Valid lines the default policy (GET, 2xx) removes.
_FILTERED = (("POST", 200), ("GET", 404), ("GET", 304), ("HEAD", 200))


@dataclass(frozen=True)
class Workload:
    """How ``commdir cluster`` is invoked on a workload, and its input shape."""

    name: str
    params: dict
    cluster_flags: tuple[str, ...]
    parse_first: bool = False  # set-up runs ``commdir parse`` to a records TSV
    gzip_log: bool = False
    curated: bool = True  # a taxonomy file is generated


WORKLOADS = {
    "bulk-log": Workload(
        "bulk-log",
        dict(lines=80_000, users=256, groups=16, areas=6, topics_per_area=8,
             malformed=0.01, filtered=0.10, unspecified=0.10),
        ("--tau", "0.9")),
    "overlap-cliques": Workload(
        "overlap-cliques",
        dict(users=300, areas=3, topics_per_area=5, hits_per_user=60,
             zipf=1.0, malformed=0.005, filtered=0.05, unspecified=0.1),
        ("--tau", "0.4", "--keep-singletons"),
        parse_first=True),
    "sparse-artificial": Workload(
        "sparse-artificial",
        dict(lines=40_000, users=1_200, sites=1_000, themes=200,
             zipf=1.0, malformed=0.005, filtered=0.05),
        ("--artificial", "--sigma", "0.2", "--tau", "0.8"),
        gzip_log=True, curated=False),
}


@dataclass
class Truth:
    """What the generator emitted, for the output checks."""

    lines: int = 0
    rejects: dict = field(default_factory=dict)
    filtered_out: int = 0
    kept: int = 0
    user_totals: dict = field(default_factory=dict)
    # user -> category -> kept hits; None when the taxonomy is artificial.
    vectors: dict | None = None

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(asdict(self), f, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "Truth":
        with open(path, encoding="utf-8") as f:
            return cls(**json.load(f))


class _LogLines:
    """Accumulates CLF lines and counts exactly what it emitted."""

    def __init__(self, rng: random.Random, malformed: float, filtered: float,
                 track_categories: bool):
        self.rng = rng
        self.malformed = malformed
        self.filtered = filtered
        self.lines: list[str] = []
        self.rejects: Counter = Counter()
        self.filtered_out = 0
        self.totals: Counter = Counter()
        self.vectors: dict[str, Counter] | None = \
            defaultdict(Counter) if track_categories else None
        # Timestamps advance one second every 40 lines, as in a busy proxy.
        self._stamps = [f"10/Oct/2000:{(s // 3600) % 24:02d}:{(s // 60) % 60:02d}"
                        f":{s % 60:02d} -0700" for s in range(86_400)]

    def _stamp(self) -> str:
        return self._stamps[(len(self.lines) // 40) % 86_400]

    def hit(self, host: str, authuser: str | None, resource: str,
            category: str | None) -> None:
        """One kept page fetch, preceded at random by a reject or a filtered line."""
        rng = self.rng
        r = rng.random()
        if r < self.malformed:
            reason = rng.choice(sorted(_MALFORMED))
            self.lines.append(_MALFORMED[reason].format(h=host))
            self.rejects[reason] += 1
        elif r < self.malformed + self.filtered:
            method, status = rng.choice(_FILTERED)
            self.lines.append(f'{host} - {authuser or "-"} [{self._stamp()}]'
                              f' "{method} {resource} HTTP/1.1" {status} 0')
            self.filtered_out += 1
        user = f"{authuser}@{host}" if authuser else host
        self.lines.append(f'{host} - {authuser or "-"} [{self._stamp()}]'
                          f' "GET {resource} HTTP/1.1" 200 {rng.randrange(200, 60_000)}')
        self.totals[user] += 1
        if self.vectors is not None:
            self.vectors[user][category or UNSPECIFIED] += 1

    def write(self, path: str, compress: bool) -> Truth:
        data = ("\n".join(self.lines) + "\n").encode("ascii")
        if compress:
            # mtime=0 keeps the gzip header, and so the file, seed-determined.
            with open(path, "wb") as raw, \
                    gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, compresslevel=6) as f:
                f.write(data)
        else:
            with open(path, "wb") as f:
                f.write(data)
        vectors = None
        if self.vectors is not None:
            vectors = {u: dict(sorted(c.items())) for u, c in sorted(self.vectors.items())}
        return Truth(lines=len(self.lines), rejects=dict(sorted(self.rejects.items())),
                     filtered_out=self.filtered_out, kept=sum(self.totals.values()),
                     user_totals=dict(sorted(self.totals.items())), vectors=vectors)


def _zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def _users(n: int, rng: random.Random) -> list[tuple[str, str | None]]:
    """n distinct (host, authuser) pairs; a third log an authenticated user."""
    out = []
    for i in range(n):
        host = f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}"
        out.append((host, f"user{i}" if rng.random() < 1 / 3 else None))
    return out


def _curated_taxonomy(areas: int, topics_per_area: int) -> tuple[str, list[str], dict]:
    """Two-level taxonomy text, its leaf paths, and path -> its one keyword."""
    keyword = {}
    lines = []
    leaves = []
    for a in range(areas):
        area = f"Top/Area-{a}"
        keyword[area] = f"area{a}x"
        lines.append(f"{area}\t{keyword[area]}")
        for t in range(topics_per_area):
            leaf = f"{area}/Topic-{t}"
            keyword[leaf] = f"topic{a}x{t}"
            lines.append(f"{leaf}\t{keyword[leaf]}")
            leaves.append(leaf)
    return "\n".join(lines) + "\n", leaves, keyword


def _page_pools(rng: random.Random, keyword: dict, per_category: int,
                sites: int) -> dict[str | None, list[str]]:
    """Resource pools: one per category (one keyword each) plus unspecified."""
    pools: dict[str | None, list[str]] = {}
    for path, kw in keyword.items():
        pools[path] = [f"/www.site{rng.randrange(sites)}.com/{kw}/page{rng.randrange(1000)}.html"
                       + ("?q=" + str(rng.randrange(10)) if rng.random() < 0.2 else "")
                       for _ in range(per_category)]
    pools[None] = [f"/www.site{rng.randrange(sites)}.com/misc/page{rng.randrange(1000)}.html"
                   for _ in range(per_category)]
    return pools


def _gen_bulk(p: dict, rng: random.Random, leaves: list[str], keyword: dict) -> _LogLines:
    pools = _page_pools(rng, keyword, 64, 200)
    log = _LogLines(rng, p["malformed"], p["filtered"], track_categories=True)
    users = _users(p["users"], rng)
    # Interest groups: each reads its own three topics with skewed weights,
    # so group members are near-parallel (cosine ~0.99) and other users
    # share only unspecified traffic. At tau 0.9 every group is one
    # community, whatever the seed.
    order = rng.sample(leaves, len(leaves))
    groups = [(order[3 * g:3 * g + 3], [rng.uniform(1, 10) for _ in range(3)])
              for g in range(p["groups"])]
    for _ in range(p["lines"]):
        i = rng.randrange(len(users))
        if rng.random() < p["unspecified"]:
            category = None
        else:
            topics, weights = groups[i % p["groups"]]
            category = rng.choices(topics, weights)[0]
        log.hit(*users[i], rng.choice(pools[category]), category)
    return log


def _gen_overlap(p: dict, rng: random.Random, leaves: list[str], keyword: dict) -> _LogLines:
    # Every user reads exactly two topics, in equal measure, plus a little
    # unspecified traffic; every pair of topics has at least one reader. Two
    # users sharing one topic then have cosine just under 0.5, users sharing
    # none just above 0, so at tau 0.4 the graph is the line graph of the
    # complete graph on the topics, with each topic pair blown up into its
    # readers. Its maximal cliques are known without enumerating them: one
    # per topic (all its readers) and one per topic triple (the readers of
    # its three pairs), whatever the seed.
    pools = _page_pools(rng, keyword, 32, 100)
    log = _LogLines(rng, p["malformed"], p["filtered"], track_categories=True)
    users = _users(p["users"], rng)
    # Pair popularity is the product of Zipf topic popularities (skewed).
    # Readers are shared out by largest remainder, and the seed only picks
    # which topics are popular, so clique sizes are the same on every seed.
    rank = {leaf: r for r, leaf in enumerate(rng.sample(leaves, len(leaves)))}
    zipf = _zipf_weights(len(leaves), p["zipf"])
    pairs = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
    extra = len(users) - len(pairs)
    if extra < 0:
        raise ValueError("overlap-cliques needs a reader for every topic pair")
    weights = [zipf[rank[a]] * zipf[rank[b]] for a, b in pairs]
    shares = [extra * w / sum(weights) for w in weights]
    readers = [1 + int(x) for x in shares]
    by_remainder = sorted(range(len(pairs)), key=lambda k: (
        int(shares[k]) - shares[k], sorted((rank[pairs[k][0]], rank[pairs[k][1]]))))
    for k in by_remainder[:len(users) - sum(readers)]:
        readers[k] += 1
    interests = [pair for pair, n in zip(pairs, readers) for _ in range(n)]
    rng.shuffle(interests)
    hits = []
    for i, (a, b) in enumerate(interests):
        per_topic = round(p["hits_per_user"] / 2 * rng.uniform(0.8, 1.2))
        unspecified = rng.randrange(round(per_topic * p["unspecified"]) + 1)
        hits += [(i, a)] * per_topic + [(i, b)] * per_topic + [(i, None)] * unspecified
    rng.shuffle(hits)
    for i, category in hits:
        log.hit(*users[i], rng.choice(pools[category]), category)
    return log


def _gen_sparse(p: dict, rng: random.Random) -> _LogLines:
    # Sites share a theme vocabulary, so their URL-token sets cluster by theme.
    themes = [[f"w{t}x{k}" for k in range(6)] for t in range(p["themes"])]
    site_pages = []
    for s in range(p["sites"]):
        words = themes[rng.randrange(p["themes"])]
        site_pages.append([f"/www.site{s}.org/{rng.choice(words)}/{rng.choice(words)}"
                           f"{rng.randrange(4)}.html" for _ in range(8)])
    log = _LogLines(rng, p["malformed"], p["filtered"], track_categories=False)
    users = _users(p["users"], rng)
    popularity = _zipf_weights(p["sites"], p["zipf"])
    visits = []
    for _ in users:
        head = rng.choices(range(p["sites"]), popularity)[0]
        tail = rng.sample(range(p["sites"]), rng.randint(1, 3))
        visits.append([head] + [s for s in tail if s != head])
    for _ in range(p["lines"]):
        i = rng.randrange(len(users))
        log.hit(*users[i], rng.choice(site_pages[rng.choice(visits[i])]), None)
    return log


def generate(name: str, seed: int, directory: str,
             params: dict | None = None) -> tuple[dict, Truth]:
    """Write workload ``name`` for ``seed`` into ``directory``.

    ``params`` overrides some of the workload's parameters (the tests use
    smaller inputs). Returns the input file paths (``log`` and, for curated
    workloads, ``taxonomy``) and the Truth, also saved as ``truth.json``.
    """
    wl = WORKLOADS[name]
    p = {**wl.params, **(params or {})}
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(directory, exist_ok=True)
    files = {"log": os.path.join(directory, "access.log.gz" if wl.gzip_log else "access.log")}
    if wl.curated:
        files["taxonomy"] = os.path.join(directory, "taxonomy.tsv")
        text, leaves, keyword = _curated_taxonomy(p["areas"], p["topics_per_area"])
        with open(files["taxonomy"], "w", encoding="utf-8") as f:
            f.write(text)
    if name == "bulk-log":
        log = _gen_bulk(p, rng, leaves, keyword)
    elif name == "overlap-cliques":
        log = _gen_overlap(p, rng, leaves, keyword)
    else:
        log = _gen_sparse(p, rng)
    truth = log.write(files["log"], wl.gzip_log)
    truth.save(os.path.join(directory, "truth.json"))
    return files, truth
