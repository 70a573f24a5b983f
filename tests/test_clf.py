import errno
import gc
import gzip
import io
import os
import random
import re
import sys
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from commdir import clf
from commdir.clf import (
    _MONTH_NAME,
    _MONTH_NUM,
    MAX_LINE_BYTES,
    FilterPolicy,
    LogRecord,
    LogStreamError,
    ParseError,
    ParseOutcome,
    ParseReason,
    filter_records,
    format_record,
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
    assert rec.timestamp == "10/Oct/2000:13:55:36 -0700"
    assert parse_timestamp(rec.timestamp) == datetime(2000, 10, 10, 13, 55, 36,
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
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 +\u0660\u0667\u0660\u0660] "GET /a HTTP/1.0" 200 -',
     ParseReason.MALFORMED_DATE),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 2_00 -', ParseReason.BAD_STATUS),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" +200 -', ParseReason.BAD_STATUS),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 1_0', ParseReason.BAD_BYTES),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] " /a HTTP/1.0" 200 -', ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "G T /a HTTP/1.0" 200 -',
     ParseReason.MALFORMED_REQUEST),
    ('1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a"b HTTP/1.0" 200 -',
     ParseReason.FIELD_COUNT_MISMATCH),
], ids=["garbage", "bad-date", "dash-request", "two-token-request",
        "alpha-status", "negative-bytes", "alpha-bytes", "trailing-field",
        "missing-field", "leading-blank", "quoted-host", "unterminated-date",
        "unterminated-request", "tab-in-request", "tab-in-escaped-request",
        "bad-date-before-tab-in-request", "signed-day", "underscore-year",
        "blank-padded-hour", "non-ascii-offset", "underscore-status", "signed-status",
        "underscore-bytes", "empty-method", "four-part-request", "unescaped-quote-in-request"])
def test_error_reasons(line, reason):
    err = parse_line(line)
    assert isinstance(err, ParseError)
    assert err.reason is reason


def test_doubled_separator_does_not_change_the_outcome():
    # A run of blanks is one separator: doubling a space never changes the
    # outcome, also next to characters that are not blanks (only space and
    # tab are). Every line that parses reads back from its canonical form,
    # which is what makes the output of ``commdir parse`` a log like any other.
    def outcome(result):
        return result.reason if isinstance(result, ParseError) else result

    rng = random.Random(3)
    marks = "\x0b\x0c\x1c\x1f\x85\xa0\u3000 \t\\\"[]-x#@"
    high_bytes = "".join(map(chr, range(0x80, 0x100)))  # as open_log decodes them
    accepted = 0
    for _ in range(3000):
        line = random_clf_line(rng)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(line) + 1)
            line = line[:i] + rng.choice(rng.choice((marks, high_bytes))) + line[i:]
        rec = parse_line(line)
        if type(rec) is LogRecord:
            accepted += 1
            assert parse_line(format_record(rec)) == rec, repr(line)
        if " " in line:
            doubled = line.replace(" ", "  ", 1)
            assert outcome(rec) == outcome(parse_line(doubled)), repr(line)
    assert accepted > 500


# The matchers of parse_line before its split fast path was deleted and the
# quoted-request grammar was unrolled, kept as the oracle of the one matcher.
_OLD_LINE_RE = re.compile(
    r'([^ \t]+)[ \t]+([^ \t]+)[ \t]+([^ \t]+)[ \t]+'
    r'\[([^\]]*)\][ \t]+'
    r'"((?:[^"\\]|\\.)*)"[ \t]+'
    r'([^ \t]+)[ \t]+([^ \t]+)[ \t]*$'
)
_OLD_TOKEN_RE = re.compile(r'(\[[^\]]*\]|"(?:[^"\\]|\\.)*"|([\["]).*|[^ \t]+)', re.DOTALL)


def fast_path_then_regex(line, took_fast_path):
    """parse_line as it was: a split(" ") fast path, then the general regex."""
    if len(line) > MAX_LINE_BYTES:
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH)
    if "\\" not in line and "\t" not in line and line.count('"') == 2:
        parts = line.split(" ")
        if (len(parts) == 10
                and parts[0] and parts[1] and parts[2]
                and parts[3][:1] == "[" and parts[4][-1:] == "]"
                and "]" not in parts[3] and "]" not in parts[4][:-1]
                and parts[5][:1] == '"' and parts[7][-1:] == '"'
                and parts[8] and parts[9]):
            took_fast_path.append(line)
            return clf._build(parts[0], parts[1], parts[2],
                              parts[3][1:] + " " + parts[4][:-1],
                              parts[5][1:] + " " + parts[6] + " " + parts[7][:-1],
                              parts[8], parts[9])
    m = _OLD_LINE_RE.match(line)
    if m is None:
        return clf._diagnose(line)
    host, ident, authuser, datestr, request, status_s, bytes_s = m.groups()
    return clf._build(host, ident, authuser, datestr, request, status_s, bytes_s)


def test_one_matcher_equals_fast_path_then_regex():
    rng = random.Random(8)
    took_fast_path = []
    diagnosed = 0
    for _ in range(20_000 // 4):
        clean = random_clf_line(rng)
        for _ in range(4):  # four edited copies of each line
            line = clean
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(line) + 1)
                edit = rng.randrange(3)  # insert, delete or replace one character
                line = (line[:i] + (rng.choice(' \t"\\[]\r\n\x0b\xa0') if edit != 1 else "")
                        + line[i + (edit != 0):])
            assert parse_line(line) == fast_path_then_regex(line, took_fast_path), repr(line)
            if _OLD_LINE_RE.match(line) is None:
                # Both sides then call _diagnose, which reads only these tokens.
                diagnosed += 1
                assert clf._TOKEN_RE.findall(line) == _OLD_TOKEN_RE.findall(line), repr(line)
    # Every branch of the oracle ran: fast path, regex match, _diagnose.
    assert min(len(took_fast_path), 20_000 - len(took_fast_path) - diagnosed, diagnosed) > 1_000


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
    assert rec.timestamp == "01/Jan/2020:00:00:00 +0530"
    assert parse_timestamp(rec.timestamp).utcoffset() == timedelta(hours=5, minutes=30)


def test_one_instant_at_two_offsets_gives_unequal_records():
    # Aware datetimes compare by instant, so records holding them could not
    # tell these two lines apart, and a lost offset would round-trip.
    west = parse_line('h - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -')
    utc = parse_line('h - - [10/Oct/2000:20:55:36 +0000] "GET /a HTTP/1.0" 200 -')
    assert parse_timestamp(west.timestamp) == parse_timestamp(utc.timestamp)
    assert west != utc


def test_minus_zero_offset_written_as_logged():
    line = 'h - - [10/Oct/2000:13:55:36 -0000] "GET /a HTTP/1.0" 200 -'
    assert format_record(parse_line(line)) == line


def test_records_of_one_date_share_one_timestamp():
    # One object per distinct date, not one per line: a log repeats dates.
    a, b = (parse_line(f'h{i} - - [10/Oct/2000:13:55:36 -0700] "GET /{i} HTTP/1.0" 200 -')
            for i in range(2))
    assert a.timestamp is b.timestamp


def test_parse_timestamp_rejects_malformed():
    for s in ["", "10/Oct/2000:13:55:36", "10/Xxx/2000:13:55:36 -0700",
              "99/Oct/2000:13:55:36 -0700", "10/Oct/2000:13:55:36 -07a0",
              "10-Oct-2000:13:55:36 -0700", "+1/Oct/2000:13:55:36 -0700",
              "10/Oct/2_00:13:55:36 -0700", "10/Oct/2000: 3:55:36 -0700"]:
        assert parse_timestamp(s) is None


# parse_timestamp as it was before its grammar became one pattern, kept as
# the oracle of that pattern.
def _tz_from_offset(s: str) -> timezone | None:
    if len(s) != 5 or s[0] not in "+-" or not (s[1:].isascii() and s[1:].isdigit()):
        return None
    hours, minutes = int(s[1:3]), int(s[3:5])
    if hours > 23 or minutes > 59:
        return None
    delta = timedelta(hours=hours, minutes=minutes)
    return timezone(-delta if s[0] == "-" else delta)


def old_parse_timestamp(s: str) -> datetime | None:
    """Parse ``dd/Mon/yyyy:HH:MM:SS +zzzz`` (fixed width); None when malformed."""
    if len(s) != 26 or s[2] != "/" or s[6] != "/" or s[11] != ":" \
            or s[14] != ":" or s[17] != ":" or s[20] != " ":
        return None
    month = _MONTH_NUM.get(s[3:6])
    if month is None:
        return None
    tz = _tz_from_offset(s[21:])
    if tz is None:
        return None
    digits = s[0:2] + s[7:11] + s[12:14] + s[15:17] + s[18:20]
    if not (digits.isascii() and digits.isdigit()):
        return None  # int() would also take a sign, "_" or a blank
    try:
        return datetime(int(s[7:11]), month, int(s[0:2]),
                        int(s[12:14]), int(s[15:17]), int(s[18:20]), tzinfo=tz)
    except ValueError:
        return None


def test_date_pattern_equals_field_checks():
    # Dates near the grammar: each field often out of range (offset hours
    # 20-29, minutes 50-69, day 29-31 of every month), months in any case,
    # then up to two characters replaced, inserted or deleted, often by a
    # digit that is not ASCII. repr compares the offset too, which == ignores.
    rng = random.Random(17)
    months = list(_MONTH_NUM) + ["oct", "OCT", "oCt", "Sept", "J\u0430n"]
    marks = "0123456789/: +-_x\t\u0661\u0966\uff10\u00b2\u2070"
    valid = 0
    for _ in range(100_000):
        f = [rng.choice((rng.randint(1, 28), rng.randint(0, 39))),
             rng.randint(0, 9999), rng.randint(0, 29), rng.randint(0, 69),
             rng.randint(0, 69), rng.randint(20, 29), rng.randint(50, 69)]
        for i, top in ((2, 23), (3, 59), (4, 59), (5, 23), (6, 59)):
            if rng.random() < 0.8:
                f[i] = rng.randint(0, top)
        s = (f"{f[0]:02d}/{rng.choice(months)}/{f[1]:04d}:{f[2]:02d}:{f[3]:02d}:{f[4]:02d}"
             f" {rng.choice('+-+-~')}{f[5]:02d}{f[6]:02d}")
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(s) + 1)
            edit = rng.randrange(4)  # replace (twice as often), insert or delete
            s = s[:i] + (rng.choice(marks) if edit else "") + s[i + (edit != 1):]
        new = parse_timestamp(s)
        assert repr(new) == repr(old_parse_timestamp(s)), repr(s)
        valid += new is not None
    assert 15_000 < valid < 50_000


def test_sample_file_parses_clean(sample_log_path):
    with open_log(sample_log_path) as f:
        outcomes = list(parse_stream(f))
    assert len(outcomes) == 13
    assert all(o.ok for o in outcomes)
    lines = sample_log_path.read_text(encoding="latin-1").splitlines()
    assert [o.result for o in outcomes] == [parse_line(line) for line in lines]


def test_parse_stream_empty_input():
    assert list(parse_stream(io.StringIO(""))) == []


def test_parse_stream_skips_blank_lines_keeps_numbers():
    other = EXAMPLE.replace("frank", "-")
    src = [EXAMPLE + "\n", "\n", "   \n", other + "\n", "\t\n"]
    assert list(parse_stream(iter(src))) == [ParseOutcome(parse_line(EXAMPLE)),
                                             ParseOutcome(parse_line(other))]

    # A stream error still numbers physical lines, blank ones included.
    def failing():
        yield from src
        raise OSError("disk gone")

    with pytest.raises(LogStreamError, match="after line 5"):
        list(parse_stream(failing()))


def test_garbage_line_reported_in_position(sample_log_path):
    lines = sample_log_path.read_text().splitlines()
    lines.insert(5, "@@@ not a log line @@@")
    outcomes = list(parse_stream(iter(line + "\n" for line in lines)))
    assert len(outcomes) == 14
    bad = [o for o in outcomes if not o.ok]
    assert len(bad) == 1
    assert [o.ok for o in outcomes].index(False) == 5
    assert bad[0].result.reason is ParseReason.FIELD_COUNT_MISMATCH


def test_chunked_parsing_equals_whole_file(sample_log_path):
    lines = sample_log_path.read_text().splitlines(keepends=True)
    whole = [o.result for o in parse_stream(iter(lines))]
    for split in (1, 4, 12):
        head = [o.result for o in parse_stream(iter(lines[:split]))]
        tail = [o.result for o in parse_stream(iter(lines[split:]))]
        assert head + tail == whole


def test_stream_error_carries_last_good_line():
    def flaky():
        yield "\n"
        yield EXAMPLE + "\n"
        yield " \n"
        yield EXAMPLE + "\n"
        raise OSError("disk gone")

    out = []
    with pytest.raises(LogStreamError) as exc_info:
        for o in parse_stream(flaky()):
            out.append(o)
    assert len(out) == 2
    # The number counts physical lines, so the blank ones too.
    assert exc_info.value.last_good_line == 4
    assert str(exc_info.value) == "log stream failed after line 4: disk gone"


def test_open_log_gzip_magic(tmp_path, sample_log_path):
    gz = tmp_path / "log.gz"
    gz.write_bytes(gzip.compress(sample_log_path.read_bytes()))
    with open_log(gz) as f:
        outcomes = list(parse_stream(f))
    assert len(outcomes) == 13 and all(o.ok for o in outcomes)


class UnreadableFile(io.BytesIO):
    """A file that opens, and whose every read fails."""

    def read(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def test_open_log_closes_the_file_when_reading_its_magic_fails(monkeypatch, sample_log_path):
    opened = []

    def unreadable(*args):
        opened.append(UnreadableFile())
        return opened[-1]

    monkeypatch.setattr(clf, "open", unreadable, raising=False)
    with pytest.raises(OSError, match=os.strerror(errno.EIO)):
        open_log(sample_log_path)
    assert len(opened) == 1 and opened[0].closed


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


def _lines(f):
    """The lines ``f`` yields, and how many it had yielded if reading failed."""
    lines = []
    try:
        for line in f:
            lines.append(line)
    except (OSError, EOFError):
        return lines, len(lines)
    return lines, None


def _textiowrapper_lines(path):
    """The oracle: a TextIOWrapper's own line iteration, which holds each
    line whole; open_log yields it without its line end and keeps only a
    prefix of an over-long line."""
    raw = gzip.open(path) if path.suffix == ".gz" else open(path, "rb")
    with io.TextIOWrapper(raw, encoding="latin-1", newline="") as f:
        lines, failed_after = _lines(f)
    return [line.rstrip("\r\n")[:MAX_LINE_BYTES + 1] for line in lines], failed_after


def _open_log_lines(path):
    with open_log(path) as f:
        return _lines(f)


def _random_log(rng, size):
    """Lines of every kind, each ended by LF, CR or CRLF at random, to at
    least ``size`` bytes, counting at most 100 of any line."""
    lines, n = [], 0
    while n < size:
        r = rng.random()
        if r < 0.6:
            line = random_clf_line(rng)
        elif r < 0.7:
            line = ""
        elif r < 0.75:
            line = rng.choice([" ", "\t", " \t "])
        elif r < 0.99:
            # \x0b, \x0c, \x1c and \x85 end a line for str.splitlines, never here.
            line = "".join(rng.choices('ab "[]/-\t\x0b\x0c\x1c\x85\xe9', k=rng.randint(1, 60)))
        else:
            line = EXAMPLE[:-1] + "x" * rng.randint(MAX_LINE_BYTES - 100, MAX_LINE_BYTES + 100)
        lines.append(line + rng.choice(["\n", "\r", "\r\n"]))
        n += min(len(lines[-1]), 100)
    if rng.random() < 0.5:
        lines[-1] = lines[-1].rstrip("\r\n") or "last"  # a last line with no line end
    return "".join(lines).encode("latin-1")


@pytest.mark.parametrize("seed", range(12))
def test_open_log_lines_equal_textiowrapper_lines(tmp_path, seed):
    rng = random.Random(seed)
    data = _random_log(rng, 64 * 1024)  # several of the chunks open_log reads
    packed = gzip.compress(data)
    plain, gz = tmp_path / "access.log", tmp_path / "access.log.gz"
    plain.write_bytes(data)
    gz.write_bytes(packed)
    expected, failed_after = _textiowrapper_lines(plain)
    assert failed_after is None and len(expected) > 100
    assert _open_log_lines(plain) == (expected, None)
    assert _open_log_lines(gz) == (expected, None)
    # A truncated gzip fails after the same line as the oracle.
    gz.write_bytes(packed[:rng.randrange(100, len(packed))])
    truncated = _textiowrapper_lines(gz)
    assert truncated[1] is not None
    assert _open_log_lines(gz) == truncated


@pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_open_log_line_end_at_a_chunk_boundary(tmp_path, end, shift):
    path = tmp_path / "access.log"
    path.write_bytes(b"x" * 3 * 8192)
    with open_log(path) as f:  # the first chunk's size depends on the file system
        boundary = len(f.buffer.read1(f._CHUNK_SIZE))
    # The first line's end starts at byte boundary - 1 + shift, so at shift 0
    # a CRLF is split across the first two chunks.
    head = '127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] "GET /'
    tail = ' HTTP/1.0" 200 2326'
    first = head + "a" * (boundary - 1 + shift - len(head) - len(tail)) + tail
    path.write_bytes((first + end + end + EXAMPLE + end + EXAMPLE).encode("latin-1"))
    lines, failed_after = _open_log_lines(path)
    assert (lines, failed_after) == _textiowrapper_lines(path)
    assert lines == [first, "", EXAMPLE, EXAMPLE]
    assert all(o.ok for o in parse_stream(lines))


@pytest.mark.parametrize("compress", [False, True])
def test_open_log_memory_does_not_grow_with_line_length(tmp_path, compress):
    long_line = EXAMPLE[:-1] + "x" * (8 * 2 ** 20)
    data = f"{EXAMPLE}\n{long_line}\r\n{EXAMPLE}".encode("latin-1")
    path = tmp_path / "long.log"
    path.write_bytes(gzip.compress(data) if compress else data)
    del data
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with open_log(path) as f:
            lines = list(f)
        outcomes = list(parse_stream(lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak:,} bytes for an 8 MiB line"
    assert lines == [EXAMPLE, long_line[:MAX_LINE_BYTES + 1], EXAMPLE]
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[1].result == ParseError(ParseReason.FIELD_COUNT_MISMATCH)


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
        text = format_record(rec)
        assert parse_line(text) == rec
        assert format_record(parse_line(text)) == text


# The datetime -> CLF date renderer that records used to need, kept as the
# oracle that draws dates for the property below.
def format_timestamp(ts: datetime) -> str:
    minutes = int(ts.utcoffset().total_seconds()) // 60
    sign = "-" if minutes < 0 else "+"
    minutes = abs(minutes)
    return (f"{ts.day:02d}/{_MONTH_NAME[ts.month - 1]}/{ts.year:04d}"
            f":{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}"
            f" {sign}{minutes // 60:02d}{minutes % 60:02d}")


@given(st.integers(100, 599), st.integers(0, 10 ** 12),
       st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1)),
       st.integers(-14 * 60, 14 * 60))
def test_round_trip_property(status, size, ts, offset_minutes):
    ts = ts.replace(microsecond=0, fold=0, tzinfo=timezone(timedelta(minutes=offset_minutes)))
    date = format_timestamp(ts)
    assert repr(parse_timestamp(date)) == repr(ts)
    rec = LogRecord("host.example", None, "user", date, "GET", "/x/y?z=1",
                    "HTTP/1.1", status, size)
    text = format_record(rec)
    assert parse_line(text) == rec
    assert format_record(parse_line(text)) == text
