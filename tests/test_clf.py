import gc
import gzip
import io
import random
import sys
import warnings
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from commdir.clf import (
    MAX_LINE_BYTES,
    FilterPolicy,
    LogRecord,
    LogStreamError,
    ParseError,
    ParseReason,
    filter_records,
    format_record,
    format_timestamp,
    open_log,
    parse_line,
    parse_stream,
    parse_timestamp,
)
from loggen import random_clf_line

EXAMPLE = '127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] "GET /apache_pb.gif HTTP/1.0" 200 2326'


def test_parse_line_example():
    rec = parse_line(EXAMPLE)
    assert isinstance(rec, LogRecord)
    assert rec.host == "127.0.0.1"
    assert rec.ident is None
    assert rec.authuser == "frank"
    assert rec.timestamp == datetime(2000, 10, 10, 13, 55, 36,
                                     tzinfo=timezone(timedelta(hours=-7)))
    assert rec.method == "GET"
    assert rec.resource == "/apache_pb.gif"
    assert rec.protocol == "HTTP/1.0"
    assert rec.status == 200
    assert rec.bytes == 2326


def test_dash_means_missing_everywhere():
    rec = parse_line('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -')
    assert rec.ident is None and rec.authuser is None and rec.bytes is None


def test_status_out_of_range_is_bad_status():
    err = parse_line('1.2.3.4 - bob [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 999 0')
    assert isinstance(err, ParseError)
    assert err.reason is ParseReason.BAD_STATUS


@pytest.mark.parametrize("line,reason", [
    ("total garbage", ParseReason.FIELD_COUNT_MISMATCH),
    ('1.2.3.4 - - [not a date] "GET /a HTTP/1.0" 200 -', ParseReason.MALFORMED_DATE),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "-" 200 -', ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a" 200 -', ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" abc -', ParseReason.BAD_STATUS),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -5', ParseReason.BAD_BYTES),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 12x', ParseReason.BAD_BYTES),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 - extra', ParseReason.FIELD_COUNT_MISMATCH),
    ('1.2.3.4 - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -', ParseReason.FIELD_COUNT_MISMATCH),
    (' 1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -', ParseReason.FIELD_COUNT_MISMATCH),
    ('"a b" - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -', ParseReason.FIELD_COUNT_MISMATCH),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700 "GET /a HTTP/1.0" 200 -', ParseReason.MALFORMED_DATE),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0\\" 200 -', ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /www.a.com/x\tb.html HTTP/1.0" 200 -',
     ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a\\ b\tc HTTP/1.0" 200 -',
     ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [bad] "GET /a\tb HTTP/1.0" 200 -', ParseReason.MALFORMED_DATE),
    ('1.2.3.4 - - [+1/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -', ParseReason.MALFORMED_DATE),
    ('1.2.3.4 - - [10/Oct/2_00:13:55:36 -0700] "GET /a HTTP/1.0" 200 -', ParseReason.MALFORMED_DATE),
    ('1.2.3.4 - - [10/Oct/2000: 3:55:36 -0700] "GET /a HTTP/1.0" 200 -', ParseReason.MALFORMED_DATE),
], ids=["garbage", "bad-date", "dash-request", "two-token-request",
        "alpha-status", "negative-bytes", "alpha-bytes", "trailing-field",
        "missing-field", "leading-blank", "quoted-host", "unterminated-date",
        "unterminated-request", "tab-in-request", "tab-in-escaped-request",
        "bad-date-before-tab-in-request", "signed-day", "underscore-year",
        "blank-padded-hour"])
def test_error_reasons(line, reason):
    err = parse_line(line)
    assert isinstance(err, ParseError)
    assert err.reason is reason
    assert err.raw_line == line


def test_doubled_separator_does_not_change_the_outcome():
    # The fast path (single spaces) and the general regex must agree, also on
    # characters that only one of them could count as blanks.
    def outcome(result):
        return result.reason if isinstance(result, ParseError) else result

    rng = random.Random(3)
    for _ in range(3000):
        line = random_clf_line(rng)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(line) + 1)
            line = line[:i] + rng.choice("\x0b\x0c\x1c\x1f\x85\xa0\u3000 \t\\\"[]-x") + line[i:]
        if " " in line:
            doubled = line.replace(" ", "  ", 1)
            assert outcome(parse_line(line)) == outcome(parse_line(doubled)), repr(line)


def test_malformed_date_wins_over_later_request_error():
    # first failing field decides the reason
    err = parse_line('1.2.3.4 - - [bad] "-" 200 -')
    assert err.reason is ParseReason.MALFORMED_DATE


def test_tabs_and_multiple_spaces_between_fields():
    rec = parse_line('1.2.3.4\t-  -\t[10/Oct/2000:13:55:36 -0700]  "GET /a HTTP/1.0"\t200  7')
    assert isinstance(rec, LogRecord)
    assert rec.status == 200 and rec.bytes == 7


def test_oversized_line_rejected():
    line = EXAMPLE[:-1] + "x" * MAX_LINE_BYTES
    err = parse_line(line)
    assert isinstance(err, ParseError)
    assert err.reason is ParseReason.FIELD_COUNT_MISMATCH


def test_escaped_quote_in_request_round_trips():
    line = '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a\\"b HTTP/1.0" 200 -'
    rec = parse_line(line)
    assert isinstance(rec, LogRecord)
    assert rec.resource == '/a\\"b'
    assert parse_line(format_record(rec)) == rec


def test_timestamp_keeps_logged_offset():
    rec = parse_line('h - - [01/Jan/2020:00:00:00 +0530] "GET / HTTP/1.1" 200 -')
    assert rec.timestamp.utcoffset() == timedelta(hours=5, minutes=30)
    assert format_timestamp(rec.timestamp) == "01/Jan/2020:00:00:00 +0530"


def test_parse_timestamp_rejects_malformed():
    for s in ["", "10/Oct/2000:13:55:36", "10/Xxx/2000:13:55:36 -0700",
              "99/Oct/2000:13:55:36 -0700", "10/Oct/2000:13:55:36 -07a0",
              "10-Oct-2000:13:55:36 -0700", "+1/Oct/2000:13:55:36 -0700",
              "10/Oct/2_00:13:55:36 -0700", "10/Oct/2000: 3:55:36 -0700"]:
        assert parse_timestamp(s) is None


def test_sample_file_parses_clean(sample_log_path):
    with open_log(sample_log_path) as f:
        outcomes = list(parse_stream(f))
    assert len(outcomes) == 13
    assert all(o.ok for o in outcomes)
    assert [o.line_number for o in outcomes] == list(range(1, 14))


def test_parse_stream_empty_input():
    assert list(parse_stream(io.StringIO(""))) == []


def test_parse_stream_skips_blank_lines_keeps_numbers():
    src = io.StringIO(EXAMPLE + "\n\n   \n" + EXAMPLE + "\n")
    outcomes = list(parse_stream(src))
    assert [o.line_number for o in outcomes] == [1, 4]


def test_garbage_line_reported_in_position(sample_log_path):
    lines = sample_log_path.read_text().splitlines()
    lines.insert(5, "@@@ not a log line @@@")
    outcomes = list(parse_stream(iter(line + "\n" for line in lines)))
    assert len(outcomes) == 14
    bad = [o for o in outcomes if not o.ok]
    assert len(bad) == 1
    assert bad[0].line_number == 6
    assert bad[0].result.reason is ParseReason.FIELD_COUNT_MISMATCH


def test_chunked_parsing_equals_whole_file(sample_log_path):
    lines = sample_log_path.read_text().splitlines(keepends=True)
    whole = [(o.line_number, o.result) for o in parse_stream(iter(lines))]
    for split in (1, 4, 12):
        head = [(o.line_number, o.result) for o in parse_stream(iter(lines[:split]))]
        tail = [(o.line_number + split, o.result)
                for o in parse_stream(iter(lines[split:]))]
        assert head + tail == whole


def test_stream_error_carries_last_good_line():
    def flaky():
        yield EXAMPLE + "\n"
        yield EXAMPLE + "\n"
        raise OSError("disk gone")

    out = []
    with pytest.raises(LogStreamError) as exc_info:
        for o in parse_stream(flaky()):
            out.append(o)
    assert len(out) == 2
    assert exc_info.value.last_good_line == 2


def test_open_log_gzip_magic(tmp_path, sample_log_path):
    gz = tmp_path / "log.gz"
    gz.write_bytes(gzip.compress(sample_log_path.read_bytes()))
    with open_log(gz) as f:
        outcomes = list(parse_stream(f))
    assert len(outcomes) == 13 and all(o.ok for o in outcomes)


def test_open_log_gzip_closes_the_raw_file(tmp_path, sample_log_path, monkeypatch):
    gz = tmp_path / "access.log.gz"
    gz.write_bytes(gzip.compress(sample_log_path.read_bytes()))
    # A file left open warns from its finalizer, where an error is "unraisable".
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with open_log(gz) as f:
            assert f.read() == sample_log_path.read_text(encoding="latin-1")
        del f
        gc.collect()
    assert unraisable == []


def test_filter_default_policy_keeps_sample(sample_records):
    assert list(filter_records(sample_records)) == sample_records


def test_filter_drops_non_matching(sample_records):
    rec404 = parse_line('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 404 -')
    assert list(filter_records([rec404])) == []
    post = parse_line('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "POST /a HTTP/1.0" 200 -')
    assert list(filter_records([post])) == []


def test_filter_status_classes():
    recs = [parse_line(f'h - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" {s} -')
            for s in (200, 301, 404)]
    policy = FilterPolicy(status_classes=frozenset({2, 3}))
    assert [r.status for r in filter_records(recs, policy)] == [200, 301]


def test_round_trip_seeded_sample():
    rng = random.Random(1234)
    for _ in range(500):
        line = random_clf_line(rng)
        rec = parse_line(line)
        assert isinstance(rec, LogRecord), line
        again = parse_line(format_record(rec))
        assert again == rec


@given(st.integers(100, 599), st.integers(0, 10 ** 12),
       st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1)),
       st.integers(-14 * 60, 14 * 60))
def test_round_trip_property(status, size, ts, offset_minutes):
    ts = ts.replace(microsecond=0, tzinfo=timezone(timedelta(minutes=offset_minutes)))
    rec = LogRecord("host.example", None, "user", ts, "GET", "/x/y?z=1",
                    "HTTP/1.1", status, size)
    assert parse_line(format_record(rec)) == rec
