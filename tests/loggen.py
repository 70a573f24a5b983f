"""Synthetic log generators shared by the unit and acceptance tests."""

import itertools
import random

_HOST_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"
_USER_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._"
_RESOURCE_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEF0123456789/.-_~%?&=+"
_METHODS = ["GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS"]
_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def random_clf_line(rng: random.Random) -> str:
    """One random valid CLF line (never an error case)."""
    if rng.random() < 0.5:
        host = ".".join(str(rng.randrange(256)) for _ in range(4))
    else:
        host = "www." + "".join(rng.choices(_HOST_CHARS, k=rng.randint(3, 10))) + ".com"
    ident = "-" if rng.random() < 0.9 else \
        "".join(rng.choices(_USER_CHARS, k=rng.randint(1, 8)))
    authuser = "-" if rng.random() < 0.5 else \
        "".join(rng.choices(_USER_CHARS, k=rng.randint(1, 12)))
    # days capped at 28 to stay valid in every month
    date = (f"{rng.randint(1, 28):02d}/{rng.choice(_MONTHS)}/{rng.randint(1995, 2035):04d}"
            f":{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}")
    offset_minutes = rng.choice(range(-12 * 60, 14 * 60 + 1, 15))
    sign = "-" if offset_minutes < 0 else "+"
    om = abs(offset_minutes)
    tz = f"{sign}{om // 60:02d}{om % 60:02d}"
    method = rng.choice(_METHODS)
    resource = "/" + "".join(rng.choices(_RESOURCE_CHARS, k=rng.randint(1, 60)))
    protocol = rng.choice(["HTTP/1.0", "HTTP/1.1", "HTTP/2.0"])
    status = rng.randint(100, 599)
    size = "-" if rng.random() < 0.1 else str(rng.randrange(0, 2 ** 31))
    sep = "  " if rng.random() < 0.05 else " "  # occasional multi-space separators
    return (f"{host}{sep}{ident} {authuser} [{date} {tz}]"
            f' "{method} {resource} {protocol}" {status} {size}')


def write_bulk_log(path, n_lines: int, seed: int = 7) -> None:
    """Fast bulk generator for throughput runs: realistic shape, cheap to emit."""
    rng = random.Random(seed)
    sites = [f"www.site{i:03d}.com" for i in range(200)]
    resources = [
        f"/{rng.choice(sites)}/dir{rng.randrange(20)}/page{rng.randrange(500)}.html"
        for _ in range(4096)
    ]
    hosts = [f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}" for i in range(1024)]
    stamps = [f"10/Oct/2000:{(s // 3600) % 24:02d}:{(s // 60) % 60:02d}:{s % 60:02d}"
              for s in range(3600)]
    chunk = 20_000
    with open(path, "w", encoding="ascii") as f:
        for start in range(0, n_lines, chunk):
            end = min(start + chunk, n_lines)
            f.writelines(
                f'{hosts[i % 1024]} - - [{stamps[(i // 100) % 3600]} -0700]'
                f' "GET {resources[i % 4096]} HTTP/1.0" 200 {1000 + (i % 9000)}\n'
                for i in range(start, end)
            )


def planted_two_group_log(seed: int = 42):
    """Log + taxonomy with two disjoint 50-user interest groups.

    Returns (log_text, taxonomy_text, group_a_leaves, group_b_leaves).
    The taxonomy has exactly 50 categories (root + 49 leaves). Group A users
    hit leaves 1-5 only, group B users leaves 6-10 only, with 8-12 hits per
    leaf so within-group cosine stays >= 0.92 and cross-group cosine is 0.
    """
    rng = random.Random(seed)
    tax_lines = [f"Top/Topic-{i:02d}\ttopic{i:02d}" for i in range(1, 50)]
    log_lines = []
    ts = "[10/Oct/2000:13:55:36 -0700]"
    for group, leaves in (("a", range(1, 6)), ("b", range(6, 11))):
        for u in range(1, 51):
            host = f"host-{group}{u:02d}"
            for leaf in leaves:
                for j in range(rng.randint(8, 12)):
                    resource = f"/www.topic{leaf:02d}.org/item{j}.html"
                    log_lines.append(
                        f'{host} - - {ts} "GET {resource} HTTP/1.0" 200 512')
    group_a = tuple(f"Top/Topic-{i:02d}" for i in range(1, 6))
    group_b = tuple(f"Top/Topic-{i:02d}" for i in range(6, 11))
    return ("\n".join(log_lines) + "\n", "\n".join(tax_lines) + "\n",
            group_a, group_b)


def moon_moser_log(groups: int):
    """Log + taxonomy whose user graph is complete ``groups``-partite with
    parts of 3 users, so it has 3**groups maximal cliques of ``groups`` users.

    Returns (log_text, taxonomy_text, tau). Each pair of users in different
    groups shares one private category, hit once by each of the two, so every
    user has 3 * (groups - 1) categories with one hit each: the cosine of a
    cross-group pair is 1 / (3 * (groups - 1)) and that of a same-group pair
    is 0. The returned tau lies just below the cross-group cosine.
    """
    users = [(i, f"g{i}u{j}") for i in range(groups) for j in range(3)]
    ts = "[10/Oct/2000:13:55:36 -0700]"
    tax_lines, log_lines = [], []
    for (group_a, a), (group_b, b) in itertools.combinations(users, 2):
        if group_a == group_b:
            continue
        topic = f"p{len(tax_lines):04d}"
        tax_lines.append(f"Top/{topic}\t{topic}")
        for host in (a, b):
            log_lines.append(f'{host} - - {ts} "GET /www.{topic}.org/ HTTP/1.0" 200 512')
    tau = 0.99 / (3 * (groups - 1))
    return "\n".join(log_lines) + "\n", "\n".join(tax_lines) + "\n", f"{tau:.4g}"
