import gzip
import json
import shutil

import pytest

from commdir.cli import main
from commdir.taxonomy import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sample(tmp_path, capsys, sample_log_path):
    out = tmp_path / "records.tsv"
    code, stdout, _ = run(capsys, "parse", str(sample_log_path), "--out", str(out))
    assert code == 0
    assert "13 records, 0 errors" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 14


def test_parse_matches_golden_table(tmp_path, capsys, sample_log_path, data_dir):
    out = tmp_path / "records.tsv"
    assert run(capsys, "parse", str(sample_log_path), "--out", str(out))[0] == 0
    assert out.read_text() == (data_dir / "sample_access_golden.tsv").read_text()


def test_parse_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    code, stdout, _ = run(capsys, "parse", str(empty), "--out", str(tmp_path / "r.tsv"))
    assert code == 2
    assert "0 records" in stdout


def test_parse_counts_errors_by_reason(tmp_path, capsys, sample_log_path):
    mutated = tmp_path / "mutated.log"
    lines = sample_log_path.read_text().splitlines()
    lines.insert(7, "@@@ garbage @@@")
    mutated.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "parse", str(mutated), "--out", str(tmp_path / "r.tsv"))
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
    assert stdout.count("\n") == 14  # header + 13 records
    assert "13 records" in stderr


def test_sites_matches_golden(capsys, sample_log_path, data_dir):
    code, stdout, _ = run(capsys, "sites", str(sample_log_path))
    assert code == 0
    assert stdout == (data_dir / "sites_golden.tsv").read_text()


def test_sites_accepts_parse_output(tmp_path, capsys, sample_log_path, data_dir):
    records = tmp_path / "records.tsv"
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
    tree = (out2 / "community-001.txt").read_text()
    assert tree.startswith("Top  ")
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
    records = tmp_path / "records.tsv"
    run(capsys, "parse", str(sample_log_path), "--out", str(records))
    out_log = tmp_path / "from-log"
    out_tsv = tmp_path / "from-tsv"
    for src, out in ((sample_log_path, out_log), (records, out_tsv)):
        code, _, _ = run(capsys, "cluster", str(src),
                         "--taxonomy", str(data_dir / "taxonomy.tsv"),
                         "--keep-singletons", "--out", str(out))
        assert code == 0
    assert {p.name: p.read_bytes() for p in sorted(out_log.iterdir())} == \
        {p.name: p.read_bytes() for p in sorted(out_tsv.iterdir())}


def test_explosion_guard_maps_to_exit_3(tmp_path, capsys, sample_log_path,
                                        data_dir, monkeypatch):
    from commdir import community as community_mod

    def blow_up(*args, **kwargs):
        raise community_mod.ExplosionGuardError(10)

    monkeypatch.setattr(community_mod, "find_communities", blow_up)
    code, _, stderr = run(capsys, "cluster", str(sample_log_path),
                          "--taxonomy", str(data_dir / "taxonomy.tsv"),
                          "--out", str(tmp_path / "o"))
    assert code == 3
    assert "cliques" in stderr


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
    code, _, _ = run(capsys, "cluster", str(empty),
                     "--taxonomy", str(data_dir / "taxonomy.tsv"),
                     "--out", str(tmp_path / "o"))
    assert code == 2


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
    assert set(outs[0]) == {"community-001.json", "community-001.txt",
                            "report.json", "report.txt", "usage-vectors.tsv"}


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
    after = len(tax.read_text().strip().splitlines())
    assert after > before

    code, _, _ = run(capsys, "taxonomy", "update", str(tax), "Top/News",
                     "--keywords", "news", "--weight", "0.8")
    assert code == 0
    assert len(tax.read_text().strip().splitlines()) == after
    assert "0.8" in tax.read_text()


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


@pytest.mark.parametrize("column,value,reason", [
    (7, "2_00", "BadStatus"), (7, " 200", "BadStatus"), (7, "+200", "BadStatus"),
    (7, "999", "BadStatus"), (8, "-3", "BadBytes"), (8, "1_0", "BadBytes"),
    (3, "10/Oct/2000", "MalformedDate"), (4, "", "MalformedRequest"),
    (0, "", "FieldCountMismatch"), (1, "", "FieldCountMismatch"), (2, "", "FieldCountMismatch"),
    (0, "a b", "FieldCountMismatch"), (1, "x ", "FieldCountMismatch"),
    (2, " frank", "FieldCountMismatch"),
])
def test_records_tsv_rows_follow_clf_field_rules(column, value, reason, tmp_path, capsys,
                                                 sample_log_path):
    records = tmp_path / "records.tsv"
    run(capsys, "parse", str(sample_log_path), "--out", str(records))
    lines = records.read_text().splitlines()
    cols = lines[3].split("\t")
    cols[column] = value
    lines[3] = "\t".join(cols)
    records.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "sites", str(records))
    assert code == 1
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
    assert stderr.rstrip().endswith(f"records file line 4: {reason}")


def test_parse_output_with_tab_in_request_reads_back(tmp_path, capsys, sample_log_path,
                                                     data_dir):
    log = tmp_path / "tab.log"
    log.write_text(sample_log_path.read_text() + '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700]'
                   ' "GET /www.a.com/x\tb.html HTTP/1.0" 200 -\n')
    records = tmp_path / "records.tsv"
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
    records = tmp_path / "records.tsv"
    run(capsys, "parse", str(log), "--out", str(records))
    reports = []
    for src, out in ((log, tmp_path / "from-log"), (records, tmp_path / "from-tsv")):
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
        out = tmp_path / "missing" / "r.tsv"
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
    if case == "bad-policy-status":
        return cluster + ["--policy-status", "x"], out
    assert case == "truncated-gzip"
    gz = tmp_path / "log.gz"
    with open(log, "rb") as f:
        data = gzip.compress(f.read())
    gz.write_bytes(data[:len(data) // 2])
    out = tmp_path / "r.tsv"
    return ["parse", str(gz), "--out", str(out)], out


@pytest.mark.parametrize("case", [
    "tau-above-1", "negative-sigma", "missing-out-dir", "out-is-a-file",
    "taxonomy-not-utf8", "taxonomy-too-deep", "bad-policy-status", "truncated-gzip"])
def test_failure_prints_one_error_line(case, tmp_path, capsys, sample_log_path, data_dir):
    argv, target = _failing_run(case, tmp_path, str(sample_log_path),
                                str(data_dir / "taxonomy.tsv"))
    code, _, stderr = run(capsys, *argv)
    assert code == 1
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
    assert list(tmp_path.rglob(".tmp-*~")) == []
    assert not target.exists()
    if case == "out-is-a-file":
        assert (tmp_path / "out").read_text() == "keep me\n"
