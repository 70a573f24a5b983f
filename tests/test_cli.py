import contextlib
import errno
import fnmatch
import gzip
import io
import json
import math
import os
import pathlib
import resource
import shutil
import stat
import subprocess
import sys

import pytest

from commdir import clf, metrics
from commdir.classify import build_usage_vectors
from commdir.cli import _policy_from_args, build_parser, main, read_records
from commdir.community import (build_community_directory, build_graph, community_profile,
                               directory_text, find_communities)
from commdir.taxonomy import MAX_DEPTH, load_taxonomy
from loggen import moon_moser_log
from test_clf import UnreadableFile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# A small overlap-cliques workload: dozens of overlapping communities.
SMALL_OVERLAP = {"users": 60, "areas": 2, "topics_per_area": 4, "hits_per_user": 40}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sample(tmp_path, capsys, sample_log_path):
    out = tmp_path / "records.log"
    code, stdout, _ = run(capsys, "parse", str(sample_log_path), "--out", str(out))
    assert code == 0
    assert "13 records, 0 errors" in stdout
    assert len(out.read_text().splitlines()) == 13


def test_parse_matches_golden_table(tmp_path, capsys, sample_log_path):
    # The sample log is canonical CLF, and parse writes canonical CLF: it
    # gives the log back, and parse of its own output changes nothing.
    out, again = tmp_path / "records.log", tmp_path / "again.log"
    assert run(capsys, "parse", str(sample_log_path), "--out", str(out))[0] == 0
    assert out.read_bytes() == sample_log_path.read_bytes()
    assert run(capsys, "parse", str(out), "--out", str(again))[0] == 0
    assert again.read_bytes() == out.read_bytes()


_NON_ASCII_LINE = (b'h\xe9st - - [10/Oct/2000:13:55:36 -0700]'
                   b' "GET /www.w3schools.com/xml/caf\xe9.html HTTP/1.0" 200 5\n')


def test_parse_writes_back_the_bytes_it_read(tmp_path, capfdbinary, sample_log_path):
    log = tmp_path / "latin1.log"
    log.write_bytes(sample_log_path.read_bytes() + _NON_ASCII_LINE)
    out = tmp_path / "records.log"
    assert main(["parse", str(log), "--out", str(out)]) == 0
    assert out.read_bytes() == log.read_bytes()
    capfdbinary.readouterr()
    assert main(["parse", str(log)]) == 0
    assert capfdbinary.readouterr().out == log.read_bytes()


def test_parse_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    code, stdout, stderr = run(capsys, "parse", str(empty), "--out", str(tmp_path / "r.log"))
    assert code == 2
    assert (stdout, stderr) == ("", "error: no records parsed: 0 lines read, 0 rejected\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.log"]
    garbage = tmp_path / "garbage.log"
    garbage.write_text("@@@ garbage @@@\nh - - [bad] \"GET / HTTP/1.0\" 200 -\n")
    for out in (("--out", str(tmp_path / "g.out")), ()):
        code, stdout, stderr = run(capsys, "parse", str(garbage), *out)
        assert code == 2
        assert (stdout, stderr) == ("", "error: no records parsed: 2 lines read, 2 rejected"
                                        " (FieldCountMismatch: 1, MalformedDate: 1)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.log", "garbage.log"]


def test_parse_counts_errors_by_reason(tmp_path, capsys, sample_log_path):
    mutated = tmp_path / "mutated.log"
    lines = sample_log_path.read_text().splitlines()
    lines.insert(7, "@@@ garbage @@@")
    mutated.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "parse", str(mutated), "--out", str(tmp_path / "r.log"))
    assert code == 0
    assert "13 records, 1 error" in stdout
    assert "FieldCountMismatch: 1" in stdout


def test_parse_missing_file_exits_1(tmp_path, capsys):
    code, _, stderr = run(capsys, "parse", str(tmp_path / "nope.log"))
    assert code == 1
    assert "cannot read" in stderr


def test_parse_to_stdout(capsys, sample_log_path):
    code, stdout, stderr = run(capsys, "parse", str(sample_log_path))
    assert code == 0
    assert stdout == sample_log_path.read_text()
    assert "13 records" in stderr


def test_parse_to_a_text_only_stdout(tmp_path, capsys, sample_log_path):
    # A library caller may redirect stdout to a stream that has no binary buffer.
    log = tmp_path / "access.log"
    log.write_bytes(sample_log_path.read_bytes()
                    + b'10.0.0.1 - - [10/Oct/2000:13:55:36 -0700] "GET /caf\xe9.html HTTP/1.0" 200 1\n')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["parse", str(log)])
    assert code == 0
    assert out.getvalue() == log.read_bytes().decode("latin-1")
    assert "14 records" in capsys.readouterr().err


def test_sites_matches_golden(capsys, sample_log_path, data_dir):
    code, stdout, _ = run(capsys, "sites", str(sample_log_path))
    assert code == 0
    assert stdout == (data_dir / "sites_golden.tsv").read_text()


def test_sites_accepts_parse_output(tmp_path, capsys, sample_log_path, data_dir):
    records = tmp_path / "records.log"
    run(capsys, "parse", str(sample_log_path), "--out", str(records))
    capsys.readouterr()
    code, stdout, _ = run(capsys, "sites", str(records))
    assert code == 0
    assert stdout == (data_dir / "sites_golden.tsv").read_text()


def test_sites_dirs_listing(capsys, sample_log_path):
    code, stdout, _ = run(capsys, "sites", str(sample_log_path), "--dirs")
    assert code == 0
    assert "www.w3schools.com\txml\t3" in stdout


def test_sites_all_local(tmp_path, capsys):
    log = tmp_path / "local.log"
    log.write_text(
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a_b.gif HTTP/1.0" 200 -\n' * 3)
    code, stdout, _ = run(capsys, "sites", str(log))
    assert code == 0
    assert "0 sites, 3 local" in stdout


def test_sites_without_records_names_what_it_read(tmp_path, capsys, data_dir):
    # The same line as cluster's: an old records TSV, then a log the policy empties.
    old_tsv = data_dir / "sample_access_golden.tsv"
    filtered = tmp_path / "filtered.log"
    filtered.write_text(
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /www.a.com/x HTTP/1.0" 404 -\n'
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "POST /www.b.com/y HTTP/1.0" 200 -\n')
    for log, counts in ((old_tsv, "14 lines rejected (FieldCountMismatch: 14), 0 filtered out"),
                        (filtered, "0 lines rejected, 2 filtered out")):
        code, stdout, stderr = run(capsys, "sites", str(log), "--dirs")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: no records to mine: {counts}\n"


def test_sites_policy_flags(tmp_path, capsys):
    log = tmp_path / "mixed.log"
    log.write_text(
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /www.a.com/x HTTP/1.0" 404 -\n'
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "POST /www.b.com/y HTTP/1.0" 200 -\n')
    code, stdout, _ = run(capsys, "sites", str(log))
    assert code == 2  # default policy drops both
    code, stdout, _ = run(capsys, "sites", str(log),
                          "--policy-methods", "GET,POST", "--policy-status", "2,4")
    assert code == 0
    assert "2 sites" in stdout


@pytest.mark.parametrize("argv", [["sites", "x.log"], ["cluster", "x.log", "--artificial"]])
def test_policy_flags_default_to_the_default_policy(argv):
    assert _policy_from_args(build_parser().parse_args(argv)) == clf.DEFAULT_POLICY


def test_cluster_single_user_needs_singletons(tmp_path, capsys, sample_log_path, data_dir):
    out = tmp_path / "comm"
    code, stdout, _ = run(capsys, "cluster", str(sample_log_path),
                          "--taxonomy", str(data_dir / "taxonomy.tsv"),
                          "--out", str(out))
    assert code == 0
    assert "communities: 0" in stdout
    assert json.loads((out / "report.json").read_text())["zero_communities"] is True

    out2 = tmp_path / "comm2"
    code, stdout, _ = run(capsys, "cluster", str(sample_log_path),
                          "--taxonomy", str(data_dir / "taxonomy.tsv"),
                          "--keep-singletons", "--out", str(out2))
    assert code == 0
    assert "communities: 1" in stdout
    tree = (out2 / "communities.txt").read_text()
    assert tree.startswith("community-001\nTop  ")
    doc = json.loads((out2 / "community-001.json").read_text())
    assert doc["members"] == ["frank@127.0.0.1"]
    assert (out2 / "usage-vectors.tsv").exists()


def test_cluster_artificial(tmp_path, capsys, sample_log_path):
    out = tmp_path / "comm"
    code, stdout, _ = run(capsys, "cluster", str(sample_log_path),
                          "--artificial", "--sigma", "0.9",
                          "--keep-singletons", "--out", str(out))
    assert code == 0
    tax_text = (out / "artificial-taxonomy.tsv").read_text()
    assert len(tax_text.strip().splitlines()) == 9
    assert "Top/Cluster-1/www.w3schools.com" in tax_text
    report = json.loads((out / "report.json").read_text())
    assert report["taxonomy_categories"] == 9
    assert report["parameters"]["sigma"] == 0.9


def test_cluster_accepts_parse_output(tmp_path, capsys, sample_log_path, data_dir):
    # A user and a resource with non-ASCII bytes come back unchanged.
    log = tmp_path / "latin1.log"
    log.write_bytes(sample_log_path.read_bytes() + _NON_ASCII_LINE)
    records = tmp_path / "records.log"
    run(capsys, "parse", str(log), "--out", str(records))
    runs = []
    for src, out in ((log, tmp_path / "from-log"), (records, tmp_path / "from-parse")):
        runs.append(run(capsys, "cluster", str(src), "--taxonomy", str(data_dir / "taxonomy.tsv"),
                        "--keep-singletons", "--out", str(out)))
        assert runs[-1][0] == 0
    assert runs[0] == runs[1]
    assert {p.name: p.read_bytes() for p in sorted((tmp_path / "from-log").iterdir())} == \
        {p.name: p.read_bytes() for p in sorted((tmp_path / "from-parse").iterdir())}
    assert "h\u00e9st" in (tmp_path / "from-parse" / "usage-vectors.tsv").read_text()


def test_cluster_writes_its_files_as_utf8(tmp_path, capsys, sample_log_path, data_dir):
    # The log's bytes are read as latin-1; every file cluster writes is UTF-8.
    log = tmp_path / "latin1.log"
    log.write_bytes(sample_log_path.read_bytes() + _NON_ASCII_LINE)
    assert run(capsys, "cluster", str(log), "--taxonomy", str(data_dir / "taxonomy.tsv"),
               "--keep-singletons", "--out", str(tmp_path / "out"))[0] == 0
    vectors = (tmp_path / "out" / "usage-vectors.tsv").read_bytes()
    assert "h\u00e9st".encode("utf-8") in vectors and b"h\xe9st" not in vectors


def test_explosion_guard_maps_to_exit_3(tmp_path, capsys, sample_log_path,
                                        data_dir, monkeypatch):
    from commdir import community as community_mod

    # The cap is read when the search runs, so the first clique trips it.
    monkeypatch.setattr(community_mod, "CLIQUE_CAP", 0)
    code, _, stderr = run(capsys, "cluster", str(sample_log_path),
                          "--taxonomy", str(data_dir / "taxonomy.tsv"),
                          "--out", str(tmp_path / "o"))
    assert code == 3
    # No cluster flag sets the cap, so the advice names only tau.
    assert stderr == "error: more than 0 maximal cliques; raise tau\n"


def test_cluster_bad_taxonomy_exits_1(tmp_path, capsys, sample_log_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Top/A\tx\t7.5\n")
    code, _, stderr = run(capsys, "cluster", str(sample_log_path),
                          "--taxonomy", str(bad), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "taxonomy" in stderr


def test_cluster_renders_taxonomy_at_max_depth(tmp_path, capsys, sample_log_path):
    deep = tmp_path / "deep.tsv"
    deep.write_text("Top" + "/c" * MAX_DEPTH + "\tw3schools,xml\n")
    code, _, _ = run(capsys, "cluster", str(sample_log_path), "--taxonomy", str(deep),
                     "--keep-singletons", "--out", str(tmp_path / "o"))
    assert code == 0
    tree = json.loads((tmp_path / "o" / "community-001.json").read_text())["tree"]
    levels = 0
    while tree:
        levels += 1
        tree = tree["children"][0] if tree["children"] else None
    assert levels == MAX_DEPTH + 1


def test_cluster_empty_log_exits_2(tmp_path, capsys, data_dir):
    empty = tmp_path / "empty.log"
    empty.write_text("\n")
    code, _, stderr = run(capsys, "cluster", str(empty),
                          "--taxonomy", str(data_dir / "taxonomy.tsv"),
                          "--out", str(tmp_path / "o"))
    assert code == 2
    assert stderr == "error: no records to mine: 0 lines rejected, 0 filtered out\n"


def test_cluster_without_records_names_what_it_read(tmp_path, capsys, data_dir):
    # A records TSV from an older parse holds no CLF line: every row is rejected.
    old_tsv = data_dir / "sample_access_golden.tsv"
    filtered = tmp_path / "filtered.log"
    filtered.write_text(
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /www.a.com/x HTTP/1.0" 404 -\n'
        '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "POST /www.b.com/y HTTP/1.0" 200 -\n')
    for log, counts in ((old_tsv, "14 lines rejected (FieldCountMismatch: 14), 0 filtered out"),
                        (filtered, "0 lines rejected, 2 filtered out")):
        code, stdout, stderr = run(capsys, "cluster", str(log), "--artificial",
                                   "--out", str(tmp_path / "o"))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: no records to mine: {counts}\n"
    assert not (tmp_path / "o").exists()


def test_cluster_gzip_input(tmp_path, capsys, sample_log_path, data_dir):
    gz = tmp_path / "log.gz"
    gz.write_bytes(gzip.compress(sample_log_path.read_bytes()))
    code, stdout, _ = run(capsys, "cluster", str(gz),
                          "--taxonomy", str(data_dir / "taxonomy.tsv"),
                          "--keep-singletons", "--out", str(tmp_path / "o"))
    assert code == 0
    assert "communities: 1" in stdout


def test_cluster_outputs_are_reproducible(tmp_path, capsys, sample_log_path, data_dir):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code, _, _ = run(capsys, "cluster", str(sample_log_path),
                         "--taxonomy", str(data_dir / "taxonomy.tsv"),
                         "--keep-singletons", "--out", str(out))
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]
    assert set(outs[0]) == {"community-001.json", "communities.txt",
                            "report.json", "report.txt", "usage-vectors.tsv"}


def test_communities_txt_joins_each_communitys_stem_and_text_tree(tmp_path, capsys):
    files, _ = gen.generate("overlap-cliques", 5, str(tmp_path / "in"), SMALL_OVERLAP)
    tax = load_taxonomy(files["taxonomy"])
    records, _ = read_records(files["log"])
    vectors = build_usage_vectors(list(clf.filter_records(records, clf.DEFAULT_POLICY)), tax)
    members = find_communities(build_graph(vectors, 0.4), keep_singletons=True)
    assert len(members) > 20
    # At theta 1 no category is selected, so each block is its stem alone.
    for theta in (0.1, 1.0):
        out = tmp_path / f"out-{theta}"
        code, _, _ = run(capsys, "cluster", files["log"], "--taxonomy", files["taxonomy"],
                         "--tau", "0.4", "--keep-singletons", "--theta", str(theta),
                         "--out", str(out))
        assert code == 0
        stems = [f"community-{i:03d}" for i in range(1, len(members) + 1)]
        trees = [directory_text(build_community_directory(tax, community_profile(m, vectors),
                                                          theta), tax) for m in members]
        assert (out / "communities.txt").read_bytes() == \
            "\n".join(f"{stem}\n{tree}" for stem, tree in zip(stems, trees)).encode()
        assert sorted(fnmatch.filter(os.listdir(out), "community-*")) == \
            [f"{stem}.json" for stem in stems]
        assert [json.loads((out / f"{stem}.json").read_text())["members"] for stem in stems] \
            == [list(m) for m in members]


def test_cluster_report_grows_with_communities_not_overlapping_pairs(tmp_path, capsys):
    files, _ = gen.generate("overlap-cliques", 5, str(tmp_path / "in"), SMALL_OVERLAP)
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "cluster", files["log"], "--taxonomy", files["taxonomy"],
                          "--tau", "0.4", "--keep-singletons", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    n, pairs = report["community_count"], len(report["overlap"])
    assert pairs > n > 20
    # The header holds the title, the seven parameters, the counts and the
    # column heads; the footer the three averages and the overlap's one line.
    text = (out / "report.txt").read_text()
    assert len(text.splitlines()) == 16 + n + 6
    assert text.endswith(f"\nshared members: {pairs} pairs of communities;"
                         ' report.json lists them under "overlap"\n')
    assert stdout == text
    jsons = sorted(out.glob("*.json"))
    assert len(jsons) == n + 1
    for path in jsons:
        data = path.read_text()
        assert data == json.dumps(json.loads(data), separators=(",", ":")) + "\n", path.name


def test_cluster_without_communities_writes_an_empty_communities_txt(tmp_path, capsys,
                                                                    sample_log_path, data_dir):
    # Also over a run that found one, so the file is never stale.
    out = tmp_path / "out"
    for flags, text in ((["--keep-singletons"], "community-001\nTop  "), ([], "")):
        code, stdout, _ = run(capsys, "cluster", str(sample_log_path),
                              "--taxonomy", str(data_dir / "taxonomy.tsv"),
                              "--out", str(out), *flags)
        assert code == 0
        assert (out / "communities.txt").read_text().startswith(text)
    assert "communities: 0" in stdout
    assert (out / "communities.txt").read_bytes() == b""
    assert sorted(p.name for p in out.iterdir()) == \
        ["communities.txt", "report.json", "report.txt", "usage-vectors.tsv"]


# A first and a second run's flags; the first writes files the second does not.
_RERUNS = {
    "fewer-communities": (["--tau", "1.0", "--keep-singletons"], ["--tau", "0.0"]),
    "artificial-then-file": (["--artificial", "--keep-singletons"], ["--keep-singletons"]),
}


@pytest.mark.parametrize("case", sorted(_RERUNS))
def test_cluster_rerun_into_used_out_writes_what_a_fresh_run_does(case, tmp_path, capsys,
                                                                  sample_log_path, data_dir):
    def cluster(flags, out):
        taxonomy = [] if "--artificial" in flags else ["--taxonomy", str(data_dir / "taxonomy.tsv")]
        code, _, _ = run(capsys, "cluster", str(sample_log_path), "--out", str(out),
                         *taxonomy, *flags)
        assert code == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    first, second = _RERUNS[case]
    used = tmp_path / "used"
    before = cluster(first, used)
    fresh = cluster(second, tmp_path / "fresh")
    assert before.keys() - fresh.keys()
    # Files that are no cluster output stay, whatever their name, also one
    # numbered in Arabic-Indic digits; a stale ASCII-numbered one goes, as do
    # the per-community text trees that communities.txt replaced.
    mine = {"notes.txt": b"mine\n", "community-01.txt": b"mine\n", "community-001.tsv": b"x",
            "community-\u0661\u0662\u0663.txt": b"mine\n"}
    stale = {"community-001.txt": b"Top  1.000000\n", "community-123.txt": b"stale\n"}
    for name, data in {**mine, **stale}.items():
        (used / name).write_bytes(data)
    assert cluster(second, used) == {**fresh, **mine}


def test_cluster_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Several stages iterate sets, whose order follows PYTHONHASHSEED.
    files, _ = gen.generate("overlap-cliques", 5, str(tmp_path / "in"), SMALL_OVERLAP)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    for mode in (["--taxonomy", files["taxonomy"], "--tau", "0.4", "--keep-singletons"],
                 ["--artificial", "--tau", "0.4"]):
        trees = []
        for seed in ("1", "2"):
            out = tmp_path / f"out-{mode[0][2:]}-{seed}"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-m", "commdir.cli", "cluster", files["log"],
                            "--out", str(out), *mode],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        # dozens of overlapping communities
        assert len(fnmatch.filter(trees[0], "community-*.json")) > 50


def test_taxonomy_show(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    code, stdout, _ = run(capsys, "taxonomy", "show", str(tax))
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 6  # 4 listed + Top + Top/Computers auto-created
    assert lines[0].startswith("Top")
    assert any(line.lstrip().startswith("XML") for line in lines)


def test_taxonomy_add_and_update(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    before = len(tax.read_text().strip().splitlines())

    code, stdout, _ = run(capsys, "taxonomy", "add", str(tax), "Top/News",
                          "--keywords", "news,press")
    assert code == 0
    assert stdout == "added Top/News (7 categories)\n"
    after = len(tax.read_text().strip().splitlines())
    assert after > before

    code, stdout, _ = run(capsys, "taxonomy", "update", str(tax), "Top/News",
                          "--keywords", "news", "--weight", "0.8")
    assert code == 0
    assert stdout == "updated Top/News (7 categories)\n"
    assert len(tax.read_text().strip().splitlines()) == after
    assert "0.8" in tax.read_text()


def test_taxonomy_edit_writes_utf8(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    assert run(capsys, "taxonomy", "add", str(tax), "Top/Cafes", "--keywords", "caf\u00e9")[0] == 0
    assert "\tcaf\u00e9".encode("utf-8") in tax.read_bytes()
    code, stdout, _ = run(capsys, "taxonomy", "show", str(tax))
    assert code == 0
    assert "  Cafes  w=0.50  caf\u00e9" in stdout.splitlines()


def test_taxonomy_update_keeps_what_a_flag_leaves_out(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)

    def edit(action, *flags):
        assert run(capsys, "taxonomy", action, str(tax), "Top/News", *flags)[0] == 0
        return [line for line in tax.read_text().splitlines() if line.startswith("Top/News")]

    assert edit("add", "--keywords", "news,press") == ["Top/News\tnews,press"]
    # A depth-default weight stays a default, so it is not written out.
    assert edit("update", "--keywords", "media,news,press") == ["Top/News\tmedia,news,press"]
    assert edit("update", "--weight", "0.8") == ["Top/News\tmedia,news,press\t0.8"]
    assert edit("update", "--keywords", "x") == ["Top/News\tx\t0.8"]
    assert edit("update") == ["Top/News\tx\t0.8"]
    assert edit("update", "--keywords", "") == ["Top/News\t\t0.8"]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_cluster_files_get_the_umask_mode(umask_022, tmp_path, capsys, sample_log_path,
                                          data_dir):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "cluster", str(sample_log_path),
                     "--taxonomy", str(data_dir / "taxonomy.tsv"), "--out", str(out))
    assert code == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert "report.json" in modes
    assert set(modes.values()) == {0o644}
    os.umask(0o077)
    (out / "report.txt").chmod(0o640)
    assert run(capsys, "cluster", str(sample_log_path), "--taxonomy",
               str(data_dir / "taxonomy.tsv"), "--out", str(out))[0] == 0
    assert stat.S_IMODE((out / "report.txt").stat().st_mode) == 0o640
    assert stat.S_IMODE((out / "report.json").stat().st_mode) == 0o644


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o664])
def test_taxonomy_edit_keeps_file_mode(mode, umask_022, capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    tax.chmod(mode)
    assert run(capsys, "taxonomy", "add", str(tax), "Top/News")[0] == 0
    assert stat.S_IMODE(tax.stat().st_mode) == mode
    assert list(tmp_path.iterdir()) == [tax]


def test_taxonomy_negative_zero_weight_is_zero(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    assert run(capsys, "taxonomy", "add", str(tax), "Top/News", "--weight", "-0")[0] == 0
    assert "Top/News\t\t0.0\n" in tax.read_text()
    code, stdout, _ = run(capsys, "taxonomy", "show", str(tax))
    assert code == 0
    assert "\n  News  w=0.00\n" in stdout


def test_cluster_negative_zero_flags_and_weights_are_zero(tmp_path, capsys, sample_log_path,
                                                          data_dir):
    tax = tmp_path / "t.tsv"
    tax.write_text((data_dir / "taxonomy.tsv").read_text().replace(
        "Top/Search\tsearch,imghp,accounts", "Top/Search\tsearch,imghp,accounts\t-0"))
    runs = {}
    for zero in ("0", "-0"):
        out = tmp_path / f"out{zero}"
        code, stdout, _ = run(capsys, "cluster", str(sample_log_path), "--taxonomy", str(tax),
                              "--tau", zero, "--theta", zero, "--keep-singletons",
                              "--out", str(out))
        assert code == 0
        runs[zero] = stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["-0"] == runs["0"]
    stdout, files = runs["-0"]
    assert "  tau = 0.0\n" in stdout and "  theta = 0.0\n" in stdout
    parameters = json.loads(files["report.json"])["parameters"]
    assert [math.copysign(1.0, parameters[k]) for k in ("tau", "theta")] == [1.0, 1.0]
    stem, tree = files["communities.txt"].split(b"\n", 1)
    assert stem == b"community-001"
    assert b"Top/Search  0.000000\n" in tree

    out = tmp_path / "artificial"
    code, stdout, _ = run(capsys, "cluster", str(sample_log_path), "--artificial",
                          "--sigma", "-0", "--out", str(out))
    assert code == 0
    assert "  sigma = 0.0\n" in stdout


def test_cluster_reports_a_failed_read_of_the_log(monkeypatch, tmp_path, capsys,
                                                  sample_log_path, data_dir):
    monkeypatch.setattr(clf, "open", lambda *args: UnreadableFile(), raising=False)
    code, stdout, stderr = run(capsys, "cluster", str(sample_log_path),
                               "--taxonomy", str(data_dir / "taxonomy.tsv"),
                               "--out", str(tmp_path / "out"))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: cannot read {sample_log_path}: {os.strerror(errno.EIO)}\n"


def test_taxonomy_add_duplicate_fails(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    code, _, stderr = run(capsys, "taxonomy", "add", str(tax), "Top/Search")
    assert code == 1
    assert "duplicate" in stderr


def test_taxonomy_update_unknown_fails(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    code, _, stderr = run(capsys, "taxonomy", "update", str(tax), "Top/Nope")
    assert code == 1
    assert "unknown" in stderr


def test_taxonomy_bad_weight_fails(capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    code, _, _ = run(capsys, "taxonomy", "add", str(tax), "Top/News",
                     "--weight", "1.5")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["Top/News", "--keywords", "news\npress"], ["Top/News", "--keywords", "news\tpress"],
    ["Top/News\tWire"], ["Top/News\nWire"],
])
def test_taxonomy_edit_that_would_not_read_back_fails(argv, capsys, tmp_path, data_dir):
    tax = tmp_path / "t.tsv"
    shutil.copy(data_dir / "taxonomy.tsv", tax)
    code, _, stderr = run(capsys, "taxonomy", "add", str(tax), *argv)
    assert code == 1
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
    assert tax.read_bytes() == (data_dir / "taxonomy.tsv").read_bytes()
    assert run(capsys, "taxonomy", "show", str(tax))[0] == 0


def test_usage_error_exits_1(capsys, tmp_path, sample_log_path, data_dir):
    assert run(capsys, "cluster")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "taxonomy", "add", "whatever.tsv")[0] == 1
    cluster = ["cluster", str(sample_log_path), "--taxonomy", str(data_dir / "taxonomy.tsv"),
               "--out", str(tmp_path / "o")]
    artificial = ["cluster", str(sample_log_path), "--artificial", "--out", str(tmp_path / "o")]
    for argv, flag, value in ((cluster, "--tau", "1.5"), (cluster, "--theta", "-1"),
                              (cluster, "--tau", "nan"), (cluster, "--theta", "x"),
                              (cluster, "--min-size", "-5"), (cluster, "--min-size", "0"),
                              (cluster, "--min-size", "1.5"), (artificial, "--sigma", "nan"),
                              (artificial, "--sigma", "inf"), (artificial, "--sigma", "-1")):
        code, _, stderr = run(capsys, *argv, flag, value)
        assert code == 1 and flag in stderr
    assert not (tmp_path / "o").exists()


def test_records_tsv_row_whose_host_starts_with_hash_is_read(tmp_path, capsys,
                                                            sample_log_path, data_dir):
    # A host may start with "#": parse writes it back, and it reads as any other.
    log = tmp_path / "hash.log"
    log.write_text('#a - - [10/Oct/2000:13:55:36 -0700] "GET /www.x.com/a.html HTTP/1.0" 200 5\n'
                   + sample_log_path.read_text())
    records = tmp_path / "records.parsed"
    assert run(capsys, "parse", str(log), "--out", str(records))[0] == 0
    assert run(capsys, "sites", str(records)) == run(capsys, "sites", str(log))
    trees = []
    for source in (log, records):
        out = tmp_path / f"out-{source.suffix[1:]}"
        assert run(capsys, "cluster", str(source), "--taxonomy", str(data_dir / "taxonomy.tsv"),
                   "--keep-singletons", "--out", str(out))[0] == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] == trees[1]
    assert b"#a\t" in trees[1]["usage-vectors.tsv"]
    # Two parse outputs concatenated read as the two raw logs concatenated.
    doubled_log, doubled_parse = tmp_path / "doubled.log", tmp_path / "doubled.parsed"
    doubled_log.write_text(log.read_text() * 2)
    doubled_parse.write_text(records.read_text() * 2)
    assert run(capsys, "sites", str(doubled_parse)) == run(capsys, "sites", str(doubled_log))


def test_tab_separated_log_whose_first_host_starts_with_hash_is_read(tmp_path, capsys):
    log = tmp_path / "hash-tab.log"
    log.write_text('#a\t-\t-\t[10/Oct/2000:13:55:36 -0700]\t"GET /www.x.com/a.html HTTP/1.0"'
                   '\t200\t5\n'
                   'b - - [10/Oct/2000:13:55:36 -0700] "GET /www.x.com/a.html HTTP/1.0" 200 5\n')
    assert run(capsys, "parse", str(log), "--out", str(tmp_path / "r"))[:2] == \
        (0, "2 lines, 2 records, 0 errors\n")
    assert run(capsys, "sites", str(log))[:2] == (0, "www.x.com\t2\n1 sites, 0 local\n")
    out = tmp_path / "out"
    assert run(capsys, "cluster", str(log), "--artificial", "--keep-singletons",
               "--out", str(out))[0] == 0
    users = (out / "usage-vectors.tsv").read_text().splitlines()
    assert [u.split("\t")[0] for u in users] == ["#a", "b"]


def test_parse_output_with_tab_in_request_reads_back(tmp_path, capsys, sample_log_path,
                                                     data_dir):
    log = tmp_path / "tab.log"
    log.write_text(sample_log_path.read_text() + '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700]'
                   ' "GET /www.a.com/x\tb.html HTTP/1.0" 200 -\n')
    records = tmp_path / "records.log"
    code, stdout, _ = run(capsys, "parse", str(log), "--out", str(records))
    assert code == 0 and "(MalformedRequest: 1)" in stdout
    assert run(capsys, "sites", str(records))[0] == 0
    assert run(capsys, "cluster", str(records), "--taxonomy", str(data_dir / "taxonomy.tsv"),
               "--out", str(tmp_path / "o"))[0] == 0


def test_cluster_report_counts_parse_errors_and_filtered(tmp_path, capsys,
                                                         sample_log_path, data_dir):
    log = tmp_path / "mixed.log"
    log.write_text(sample_log_path.read_text() + "@@@ garbage @@@\n"
                   '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "POST /www.b.com/y HTTP/1.0" 200 -\n')
    records = tmp_path / "records.log"
    run(capsys, "parse", str(log), "--out", str(records))
    reports = []
    for src, out in ((log, tmp_path / "from-log"), (records, tmp_path / "from-parse")):
        code, _, _ = run(capsys, "cluster", str(src), "--taxonomy", str(data_dir / "taxonomy.tsv"),
                         "--keep-singletons", "--out", str(out))
        assert code == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0]["parse_errors"] == {"FieldCountMismatch": 1}
    assert reports[1]["parse_errors"] == {}
    assert reports[0]["filtered_out"] == reports[1]["filtered_out"] == 1


def _failing_run(case, tmp_path, log, tax):
    """argv of one failing run and the output path it must not create."""
    out = tmp_path / "out"
    cluster = ["cluster", log, "--taxonomy", tax, "--out", str(out)]
    if case == "tau-above-1":
        return cluster + ["--tau", "1.5"], out
    if case == "negative-sigma":
        return ["cluster", log, "--artificial", "--sigma", "-1", "--out", str(out)], out
    if case == "missing-out-dir":
        out = tmp_path / "missing" / "r.log"
        return ["parse", log, "--out", str(out)], out
    if case == "out-is-a-file":
        out.write_text("keep me\n")
        return cluster, tmp_path / "out" / "report.json"
    if case == "taxonomy-not-utf8":
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"Top/A\t\xff\xfe\n")
        return ["cluster", log, "--taxonomy", str(bad), "--out", str(out)], out
    if case == "taxonomy-too-deep":
        deep = tmp_path / "deep.tsv"
        deep.write_text("Top" + "/c" * 600 + "\tw3schools,xml\n")
        return ["cluster", log, "--taxonomy", str(deep), "--keep-singletons",
                "--out", str(out)], out
    if case == "bad-policy-methods":
        return cluster + ["--policy-methods", ","], out
    if case.startswith("bad-policy-status"):
        # Out-of-range classes and non-ASCII digits are no status class.
        return cluster + ["--policy-status", case.partition(":")[2] or "x"], out
    gz = tmp_path / "log.gz"
    if case == "missing-log":
        # parse opens its --out file before it reads the log.
        return ["parse", str(gz), "--out", str(tmp_path / "r.log")], tmp_path / "r.log"
    with open(log, "rb") as f:
        data = gzip.compress(f.read())
    if case.startswith("corrupt-gzip"):
        # The first deflate block header (after the 10-byte gzip header)
        # becomes the reserved block type 3: zlib rejects the stream.
        gz.write_bytes(data[:10] + b"\xff" + data[11:])
        if case == "corrupt-gzip-cluster":
            return ["cluster", str(gz), "--taxonomy", tax, "--out", str(out)], out
        return ["parse", str(gz), "--out", str(tmp_path / "r.log")], tmp_path / "r.log"
    if case == "truncated-gzip-records":
        records = tmp_path / "records.log"
        assert main(["parse", log, "--out", str(records)]) == 0
        data = gzip.compress(records.read_bytes())
        records.unlink()
        gz.write_bytes(data[:len(data) // 2])
        return ["cluster", str(gz), "--taxonomy", tax, "--out", str(out)], out
    assert case == "truncated-gzip"
    gz.write_bytes(data[:len(data) // 2])
    out = tmp_path / "r.log"
    return ["parse", str(gz), "--out", str(out)], out


@pytest.mark.parametrize("case", [
    "tau-above-1", "negative-sigma", "missing-out-dir", "out-is-a-file",
    "taxonomy-not-utf8", "taxonomy-too-deep", "bad-policy-methods", "bad-policy-status",
    "bad-policy-status:7", "bad-policy-status:0", "bad-policy-status:-2",
    "bad-policy-status:1_0", "bad-policy-status:2,\u0663", "truncated-gzip",
    "corrupt-gzip-parse", "corrupt-gzip-cluster", "truncated-gzip-records", "missing-log"])
def test_failure_prints_one_error_line(case, tmp_path, capsys, sample_log_path, data_dir):
    argv, target = _failing_run(case, tmp_path, str(sample_log_path),
                                str(data_dir / "taxonomy.tsv"))
    code, _, stderr = run(capsys, *argv)
    assert code == 1
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
    if "gzip" in case or case == "missing-log":
        assert f"cannot read {tmp_path / 'log.gz'}: " in stderr
    if case.startswith("bad-policy-status"):
        assert stderr.startswith("error: bad --policy-status: ")
    assert list(tmp_path.rglob(".tmp-*~")) == []
    assert not target.exists()
    if case == "out-is-a-file":
        assert (tmp_path / "out").read_text() == "keep me\n"


def _cap_address_space():
    # Runs in the child between fork and exec, so only the child is capped.
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_out_of_memory_prints_one_error_line(tmp_path):
    # 8 groups of 3 users: 6,561 maximal cliques of 8, each user in 2,187 of
    # them, so the report's overlap counts ~20M community pairs, more than
    # 512 MiB hold.
    log_text, tax_text, tau = moon_moser_log(8)
    (tmp_path / "mm.log").write_text(log_text)
    (tmp_path / "mm.tsv").write_text(tax_text)
    out = tmp_path / "out"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "commdir.cli", "cluster", str(tmp_path / "mm.log"),
         "--taxonomy", str(tmp_path / "mm.tsv"), "--tau", tau, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=_cap_address_space,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert not out.exists() or list(out.iterdir()) == []


def _report_json_out_of_memory(doc, render=metrics.report_json):
    """report_json failing on the run's report only: each community document still renders."""
    if "parameters" in doc:
        raise MemoryError
    return render(doc)


def _cluster_out_of_memory(capsys, *argv):
    code, stdout, stderr = run(capsys, "cluster", *argv)
    assert (code, stdout, stderr) == (1, "", "error: out of memory\n")


def test_cluster_failing_to_render_leaves_a_used_out_as_it_was(tmp_path, capsys, sample_log_path,
                                                                data_dir, monkeypatch):
    argv = [str(sample_log_path), "--taxonomy", str(data_dir / "taxonomy.tsv"),
            "--out", str(tmp_path / "out")]
    # At tau 0 the one user forms no community; with --keep-singletons at tau 1, one.
    assert run(capsys, "cluster", *argv, "--tau", "0.0")[0] == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert "community-001.json" not in before
    monkeypatch.setattr(metrics, "report_json", _report_json_out_of_memory)
    _cluster_out_of_memory(capsys, *argv, "--tau", "1.0", "--keep-singletons")
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


def test_cluster_failing_to_render_creates_no_out(tmp_path, capsys, sample_log_path, monkeypatch):
    monkeypatch.setattr(metrics, "report_json", _report_json_out_of_memory)
    _cluster_out_of_memory(capsys, str(sample_log_path), "--artificial", "--keep-singletons",
                           "--out", str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_parse_out_is_a_directory_names_it(tmp_path, capsys, sample_log_path):
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, stderr = run(capsys, "parse", str(sample_log_path), "--out", str(out))
    assert code == 1
    assert (stdout, stderr) == ("", f"error: cannot write {out}: Is a directory\n")
    assert list(tmp_path.glob(".tmp-*~")) == []
    assert list(out.iterdir()) == []
