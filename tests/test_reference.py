"""``commdir cluster --taxonomy`` against the reference pipeline of reference.py."""

import json
import random

from commdir.cli import main
from reference import cluster

_WORDS = ["apple", "blue", "cd", "xml", "news", "shop", "mail", "java"]
_TS = "[10/Oct/2000:13:55:36 -0700]"


def random_taxonomy(rng):
    """Taxonomy text over a few paths up to 3 deep, keywords shared between
    categories so that depth, overlap and path all break ties."""
    lines = []
    for _ in range(rng.randint(1, 6)):
        path = "/".join(["Top"] + rng.choices(["arts", "tech", "web"], k=rng.randint(1, 3)))
        if any(line.startswith(path + "\t") for line in lines):
            continue
        # "www" and the last site label are never tokens: no page matches them.
        line = f"{path}\t{','.join(rng.sample(_WORDS + ['www', 'com'], rng.randint(0, 3)))}"
        if rng.random() < 0.2:
            line += f"\t{rng.choice(['0', '0.25', '1'])}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def random_resource(rng):
    """A site page, a local page, or a site that is no hostname; mixed case,
    sometimes with a query."""
    words = rng.sample(_WORDS, 3)
    kind = rng.random()
    if kind < 0.6:
        site = rng.choice([f"www.{words[0]}.com", f"{words[0]}.{words[1]}.org",
                           f"WWW.{words[0].upper()}", f"www.{words[0]}.co.uk"])
        resource = f"/{site}/{words[1]}/{words[2]}.html"
    elif kind < 0.8:
        resource = f"/{words[0]}/{words[1]}.gif"
    else:
        resource = f"/{words[0]}..com/{rng.choice(['', words[1] + '.'])}"
    if rng.random() < 0.2:
        resource += f"?q={words[2]}"
    return resource


def random_log(rng):
    """Up to 8 users' lines, some of them filtered out by the default policy or
    rejected by the parser, and at least one that is kept."""
    users = [(f"10.0.0.{i}", "-") for i in range(rng.randint(1, 7))] + [("10.0.0.0", "frank")]
    lines = []
    for _ in range(rng.randint(1, 20)):
        host, authuser = rng.choice(users)
        method, status = rng.choice([("GET", 200)] * 8 + [("POST", 200), ("GET", 404)])
        lines.append(f'{host} - {authuser} {_TS} "{method} {random_resource(rng)} HTTP/1.0"'
                     f' {status} 512')
    if rng.random() < 0.2:
        lines.append(f"{users[0][0]} - - [bad date] \"GET / HTTP/1.0\" 200 1")
    lines.append(f'{users[0][0]} - - {_TS} "GET {random_resource(rng)} HTTP/1.0" 200 1')
    return "\n".join(lines) + "\n"


def test_cluster_matches_reference_pipeline(tmp_path, capsys):
    rng = random.Random(2012)
    seen = {"communities": 0, "overlaps": 0, "zero": 0, "unspecified": 0}
    for case in range(150):
        log, tax = tmp_path / f"{case}.log", tmp_path / f"{case}.tsv"
        log.write_text(random_log(rng))
        tax.write_text(random_taxonomy(rng))
        tau = rng.choice(["0", "0.25", "0.4", "0.5", "0.75", "1"])
        theta = rng.choice(["0", "0.1", "0.5"])
        min_size = rng.randint(1, 3)
        keep_singletons = rng.random() < 0.5
        out = tmp_path / f"out{case}"
        argv = ["cluster", str(log), "--taxonomy", str(tax), "--tau", tau, "--theta", theta,
                "--min-size", str(min_size), "--out", str(out)]
        assert main(argv + ["--keep-singletons"] * keep_singletons) == 0
        capsys.readouterr()
        expected = cluster(str(log), tax.read_text(), tau, theta, min_size, keep_singletons)
        written = {p.name for p in out.iterdir()} - {"report.txt"}
        assert written == set(expected), case
        for name, value in expected.items():
            text = (out / name).read_text()
            assert (json.loads(text) if name.endswith(".json") else text) == value, (case, name)
        report = expected["report.json"]
        seen["communities"] += report["community_count"]
        seen["overlaps"] += len(report["overlap"])
        seen["zero"] += report["zero_communities"]
        seen["unspecified"] += "\tunspecified\t" in expected["usage-vectors.tsv"]
    assert min(seen.values()) > 10, seen
