"""The generator is deterministic for a seed and emits what its Truth says."""

import filecmp
import os

import pytest

import check
import gen

SMALL = {
    "bulk-log": {"lines": 5_000, "users": 40},
    "overlap-cliques": {"users": 60, "areas": 2, "topics_per_area": 4, "hits_per_user": 40},
    "sparse-artificial": {"lines": 3_000, "users": 200, "sites": 150, "themes": 30},
}


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    files_a, truth_a = gen.generate(name, 7, str(tmp_path / "a"))
    files_b, truth_b = gen.generate(name, 7, str(tmp_path / "b"))
    assert truth_a == truth_b
    for key, path in files_a.items():
        assert filecmp.cmp(path, files_b[key], shallow=False), key
    assert filecmp.cmp(tmp_path / "a" / "truth.json", tmp_path / "b" / "truth.json",
                       shallow=False)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_other_seed_other_inputs(tmp_path, name):
    files_a, _ = gen.generate(name, 1, str(tmp_path / "a"), SMALL[name])
    files_b, _ = gen.generate(name, 2, str(tmp_path / "b"), SMALL[name])
    assert not filecmp.cmp(files_a["log"], files_b["log"], shallow=False)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_truth_matches_parser(tmp_path, name):
    files, truth = gen.generate(name, 3, str(tmp_path), SMALL[name])
    assert check.parse_counts(files["log"], truth) == []
    assert set(truth.rejects) == {"MalformedDate", "MalformedRequest", "BadStatus"}
    assert truth.kept == sum(truth.user_totals.values())
    assert gen.Truth.load(os.path.join(tmp_path, "truth.json")) == truth
