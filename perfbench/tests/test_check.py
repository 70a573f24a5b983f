"""The output checks accept the program's output and reject corrupted copies."""

import json
import os
import shutil
from fractions import Fraction

import pytest

import check
import gen
from commdir.cli import main as cli_main

OVERLAP = {"users": 60, "areas": 2, "topics_per_area": 4, "hits_per_user": 40}
TOPICS = 8  # areas * topics_per_area above


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """A small overlap-cliques workload clustered once by the real CLI."""
    directory = tmp_path_factory.mktemp("overlap")
    files, truth = gen.generate("overlap-cliques", 5, str(directory), OVERLAP)
    out = directory / "out"
    flags = list(gen.WORKLOADS["overlap-cliques"].cluster_flags)
    assert cli_main(["cluster", files["log"], "--taxonomy", files["taxonomy"],
                     "--out", str(out)] + flags) == 0
    return out, truth


def corrupted(clustered, tmp_path):
    out, truth = clustered
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy, truth


def run_checks(out, truth):
    return check.outputs(str(out), truth, "0.4", keep_singletons=True, check_cliques=True)


def edit_members(out, index, edit):
    path = out / f"community-{index:03d}.json"
    doc = json.loads(path.read_text())
    doc["members"] = edit(doc["members"])
    path.write_text(json.dumps(doc))


def test_program_output_passes(clustered):
    out, truth = clustered
    assert run_checks(out, truth) == []
    # One clique per topic and one per topic triple, whatever the seed.
    assert len(check.read_members(str(out))) == TOPICS + TOPICS * (TOPICS - 1) * (TOPICS - 2) // 6


def test_non_maximal_clique_rejected(clustered, tmp_path):
    out, truth = corrupted(clustered, tmp_path)
    edit_members(out, 1, lambda members: members[1:])
    assert any("not maximal" in p for p in run_checks(out, truth))


def test_non_clique_rejected(clustered, tmp_path):
    out, truth = corrupted(clustered, tmp_path)
    adj = check.tau_graph(truth.vectors, Fraction("0.4"))
    members = check.read_members(str(out))[0]
    stranger = next(u for u in sorted(adj) if u not in members
                    and any(u not in adj[m] for m in members))
    edit_members(out, 1, lambda ms: sorted(ms + [stranger]))
    assert any("not a clique" in p for p in run_checks(out, truth))


def test_missing_community_rejected(clustered, tmp_path):
    out, truth = corrupted(clustered, tmp_path)
    last = sorted(out.glob("community-*.json"))[-1]
    os.remove(last)
    problems = run_checks(out, truth)
    assert any("maximal cliques are missing" in p for p in problems)
    assert any("report.json counts" in p for p in problems)


def test_wrong_usage_vector_rejected(clustered, tmp_path):
    out, truth = corrupted(clustered, tmp_path)
    path = out / "usage-vectors.tsv"
    lines = path.read_text().splitlines()
    user, category, n = lines[0].split("\t")
    lines[0] = f"{user}\t{category}\t{int(n) + 1}"
    path.write_text("\n".join(lines) + "\n")
    problems = run_checks(out, truth)
    assert any("kept hits" in p for p in problems)
    assert check.digest(str(out)) != check.digest(str(clustered[0]))


def test_parse_summary_checked(tmp_path, capsys):
    files, truth = gen.generate("overlap-cliques", 5, str(tmp_path), OVERLAP)
    assert cli_main(["parse", files["log"], "--out", str(tmp_path / "records.tsv")]) == 0
    summary = capsys.readouterr().out
    assert check.parse_summary(summary, truth) == []
    assert check.parse_summary(summary.replace(" lines", "1 lines", 1), truth) != []
