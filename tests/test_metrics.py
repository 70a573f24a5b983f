import io
import json
import random

import pytest

from commdir.classify import UNSPECIFIED, UsageVector, build_usage_vectors
from commdir.community import (
    Community,
    CommunityDirectory,
    build_community_directory,
    community_profile,
)
from commdir.metrics import (
    build_report,
    coverage,
    report_json,
    report_text,
    shrinkage,
    unspecified_fraction,
)
from commdir.taxonomy import load_taxonomy


def make_dir(tax, profile, theta):
    com = Community(("u",), dict(profile), sum(profile.values()))
    return build_community_directory(tax, com, theta), com


def test_shrinkage_full_selection(fixture_taxonomy):
    cdir, _ = make_dir(fixture_taxonomy, {"Top/Search": 1}, 0.0)
    assert shrinkage(fixture_taxonomy, cdir) == 1.0


def test_shrinkage_partial(fixture_taxonomy):
    # theta above every score except the whole-tree root: nothing selected
    cdir, _ = make_dir(fixture_taxonomy, {"Top/Search": 1}, 0.9)
    assert shrinkage(fixture_taxonomy, cdir) == 0.0
    cdir, _ = make_dir(fixture_taxonomy, {"Top/Computers/XML": 1}, 0.5)
    # selects XML (score 1.0) plus its two ancestors = 3 of 6 categories
    assert shrinkage(fixture_taxonomy, cdir) == pytest.approx(3 / 6)


def test_shrinkage_rejects_foreign_selection(fixture_taxonomy):
    cdir, _ = make_dir(fixture_taxonomy, {"Top/Search": 1}, 0.0)
    from commdir.taxonomy import load_taxonomy
    import io
    other = load_taxonomy(io.StringIO("Top/Else\n"))
    with pytest.raises(ValueError):
        shrinkage(other, cdir)


def test_coverage_full_and_empty(fixture_taxonomy):
    cdir, com = make_dir(fixture_taxonomy, {"Top/Search": 3, "Top/Software": 1}, 0.0)
    assert coverage(cdir, com) == 1.0
    cdir, com = make_dir(fixture_taxonomy, {"Top/Search": 3}, 1.0)
    assert cdir.selected == {}
    assert coverage(cdir, com) == 0.0


def test_coverage_ratio(fixture_taxonomy):
    # 9 of 12 classified hits inside the selected set
    profile = {"Top/Computers/XML": 9, "Top/Search": 3}
    com = Community(("u",), profile, 12)
    cdir = build_community_directory(fixture_taxonomy, com, 0.6)
    assert set(cdir.selected) == {"Top", "Top/Computers", "Top/Computers/XML"}
    assert coverage(cdir, com) == pytest.approx(0.75)


def test_coverage_ignores_unspecified_mass(fixture_taxonomy):
    profile = {"Top/Search": 2, UNSPECIFIED: 6}
    com = Community(("u",), profile, 8)
    cdir = build_community_directory(fixture_taxonomy, com, 0.01)
    assert coverage(cdir, com) == 1.0
    assert unspecified_fraction(com) == pytest.approx(0.75)


def test_unspecified_fraction_of_no_hits_is_zero():
    assert unspecified_fraction(Community(("u",), {}, 0)) == 0.0


def test_coverage_defined_when_all_unspecified(fixture_taxonomy):
    com = Community(("u",), {UNSPECIFIED: 4}, 4)
    cdir = build_community_directory(fixture_taxonomy, com, 0.5)
    assert coverage(cdir, com) == 1.0


def test_report_single_community(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile([vectors[0].user], vectors)
    cdir = build_community_directory(fixture_taxonomy, com, 0.0)
    report = build_report(fixture_taxonomy, [cdir], vectors, {"theta": 0.0})
    assert report["community_count"] == 1
    assert not report["zero_communities"]
    row = report["communities"][0]
    assert row["coverage"] == 1.0
    assert row["shrinkage"] == 1.0
    assert row["member_count"] == 1
    assert row["total_hits"] == 13
    assert row["unspecified_fraction"] == pytest.approx(2 / 13)
    assert report["overlap"] == []
    assert report["averages"]["coverage"] == 1.0
    text = report_text(report)
    assert "communities: 1" in text
    assert "theta = 0.0" in text
    assert "shared members" not in text


def test_report_zero_communities(fixture_taxonomy):
    report = build_report(fixture_taxonomy, [], [], {})
    assert report["zero_communities"] is True
    assert report["communities"] == []
    assert report["averages"]["shrinkage"] is None
    text = report_text(report)
    assert "zero communities" in text
    json.loads(report_json(report))


def test_report_averages_are_exact_means():
    # Ten communities, each selecting 1 of 10 categories and reaching 1 of its
    # 10 classified hits. Added one by one, ten 0.1s make 0.9999999999999999;
    # math.fsum rounds once, so each average is 0.1 on every Python version.
    tax = load_taxonomy(io.StringIO("".join(f"Top/C{i}\n" for i in range(9))))
    profile = {"Top": 1, "Top/C0": 9}
    vectors = [UsageVector(f"u{i}", profile, 10) for i in range(10)]
    directories = [CommunityDirectory(Community((v.user,), profile, 10), {"Top": 1.0}, 0.5)
                   for v in vectors]
    report = build_report(tax, directories, vectors)
    assert [(r["shrinkage"], r["coverage"]) for r in report["communities"]] == [(0.1, 0.1)] * 10
    assert (report["averages"]["shrinkage"], report["averages"]["coverage"]) == (0.1, 0.1)


def test_report_overlap_pairs(fixture_taxonomy):
    vectors = [
        UsageVector("a", {"Top/Search": 1}, 1),
        UsageVector("b", {"Top/Search": 1}, 1),
        UsageVector("c", {"Top/Search": 1}, 1),
    ]
    com_ab = community_profile(["a", "b"], vectors)
    com_bc = community_profile(["b", "c"], vectors)
    d1 = build_community_directory(fixture_taxonomy, com_ab, 0.0)
    d2 = build_community_directory(fixture_taxonomy, com_bc, 0.0)
    report = build_report(fixture_taxonomy, [d1, d2], vectors)
    assert report["overlap"] == [[1, 2, 1]]
    assert report_text(report).endswith(
        '\nshared members: 1 pairs of communities; report.json lists them under "overlap"\n')
    assert json.loads(report_json(report))["overlap"] == [[1, 2, 1]]


def test_overlap_pairs_are_the_nonzero_cells_of_the_matrix(fixture_taxonomy):
    rng = random.Random(91)
    users = [f"u{i:02d}" for i in range(30)]
    vectors = [UsageVector(u, {"Top/Search": 1}, 1) for u in users]
    for _ in range(40):
        member_sets = [rng.sample(users, rng.randint(1, 8)) for _ in range(rng.randint(0, 25))]
        directories = [build_community_directory(fixture_taxonomy,
                                                 community_profile(m, vectors), 0.5)
                       for m in member_sets]
        report = build_report(fixture_taxonomy, directories, vectors)
        # The dense k x k matrix the report held before, as the reference.
        sets = [set(m) for m in member_sets]
        matrix = [[len(a & b) for b in sets] for a in sets]
        assert report["overlap"] == [[i + 1, j + 1, matrix[i][j]]
                                     for i in range(len(sets)) for j in range(i + 1, len(sets))
                                     if matrix[i][j]]
        assert [row["member_count"] for row in report["communities"]] == \
            [matrix[i][i] for i in range(len(sets))]


def test_report_totals_match_recomputation(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile([vectors[0].user], vectors)
    cdir = build_community_directory(fixture_taxonomy, com, 0.1)
    report = build_report(fixture_taxonomy, [cdir], vectors)
    row = report["communities"][0]
    assert row["total_hits"] == sum(v.total for v in vectors if v.user in com.members)
    assert report["averages"]["global_unspecified_fraction"] == pytest.approx(
        sum(v.counts.get(UNSPECIFIED, 0) for v in vectors) /
        sum(v.total for v in vectors))


def test_coverage_monotone_in_theta(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile([vectors[0].user], vectors)
    thetas = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
    covs = [coverage(build_community_directory(fixture_taxonomy, com, t), com)
            for t in thetas]
    assert covs == sorted(covs, reverse=True)


def test_report_json_is_deterministic(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    com = community_profile([vectors[0].user], vectors)
    cdir = build_community_directory(fixture_taxonomy, com, 0.1)
    a = report_json(build_report(fixture_taxonomy, [cdir], vectors, {"x": 1}))
    b = report_json(build_report(fixture_taxonomy, [cdir], vectors, {"x": 1}))
    assert a == b
