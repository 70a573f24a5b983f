import pathlib

import pytest

from commdir.clf import open_log, parse_stream
from commdir.taxonomy import load_taxonomy

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture
def sample_log_path() -> pathlib.Path:
    return DATA / "sample_access.log"


@pytest.fixture
def sample_records(sample_log_path):
    with open_log(sample_log_path) as f:
        outcomes = list(parse_stream(f))
    assert all(o.ok for o in outcomes)
    return [o.result for o in outcomes]


@pytest.fixture
def fixture_taxonomy():
    return load_taxonomy(DATA / "taxonomy.tsv")
