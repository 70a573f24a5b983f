"""Common Log Format parsing.

Streaming parser for proxy/web-server access logs in CLF
(``host ident authuser [date] "request" status bytes``), with per-line
error recovery: a bad line yields a typed error value instead of aborting
the file. Also provides the inverse serializer, the records-TSV row
format (read under the same field rules), a gzip-aware file opener and a
method/status filter for restricting records to page fetches worth mining.

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import gzip
import io
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import IO, Iterable, Iterator

# Lines longer than this are rejected outright; bounds memory when streaming.
MAX_LINE_BYTES = 64 * 1024


class ParseReason(Enum):
    """Which field of a CLF line failed first."""

    MALFORMED_DATE = "MalformedDate"
    MALFORMED_REQUEST = "MalformedRequest"
    BAD_STATUS = "BadStatus"
    BAD_BYTES = "BadBytes"
    FIELD_COUNT_MISMATCH = "FieldCountMismatch"


@dataclass(slots=True)
class LogRecord:
    """One parsed CLF line. ``ident``/``authuser``/``bytes`` are None when logged as "-"."""

    host: str
    ident: str | None
    authuser: str | None
    timestamp: datetime  # carries the logged UTC offset, never normalized
    method: str
    resource: str
    protocol: str
    status: int
    bytes: int | None


@dataclass(slots=True)
class ParseError:
    reason: ParseReason
    raw_line: str


@dataclass(slots=True)
class ParseOutcome:
    """Result for one physical log line: a record or the error that rejected it."""

    line_number: int
    result: LogRecord | ParseError

    @property
    def ok(self) -> bool:
        return type(self.result) is LogRecord


class LogStreamError(OSError):
    """The underlying line source failed mid-stream (I/O or gzip corruption)."""

    def __init__(self, last_good_line: int, detail: str = ""):
        msg = f"log stream failed after line {last_good_line}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.last_good_line = last_good_line


@dataclass(frozen=True)
class FilterPolicy:
    """Which records count as page fetches: method whitelist x status classes (2 = 2xx)."""

    methods: frozenset[str] = frozenset({"GET"})
    status_classes: frozenset[int] = frozenset({2})


DEFAULT_POLICY = FilterPolicy()

_MONTH_NUM = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAME = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# General line shape: separators between fields may be runs of spaces/tabs,
# the date is bracketed, the request quoted (with backslash escapes). Only
# space and tab are blanks, as in the fast path of parse_line and _TOKEN_RE.
_LINE_RE = re.compile(
    r'([^ \t]+)[ \t]+([^ \t]+)[ \t]+([^ \t]+)[ \t]+'
    r'\[([^\]]*)\][ \t]+'
    r'"((?:[^"\\]|\\.)*)"[ \t]+'
    r'([^ \t]+)[ \t]+([^ \t]+)[ \t]*$'
)

# Tokens of a line that failed _LINE_RE: a bracketed date, a quoted request
# (backslash escapes) or a run of non-blanks. An unterminated bracket or
# quote takes the rest of the line and is captured as group 2.
_TOKEN_RE = re.compile(r'(\[[^\]]*\]|"(?:[^"\\]|\\.)*"|([\["]).*|[^ \t]+)', re.DOTALL)

# Split the request line on unescaped spaces. "\ " never splits; the rarer
# "\\ " (escaped backslash then space) is treated the same, which keeps
# every parseable resource re-serializable.
_UNESCAPED_SPACE_RE = re.compile(r"(?<!\\) ")

# Header row of the records TSV that ``commdir parse`` writes.
RECORDS_HEADER = ("# host\tident\tauthuser\ttimestamp\tmethod\tresource"
                  "\tprotocol\tstatus\tbytes")


def _tz_from_offset(s: str) -> timezone | None:
    if len(s) != 5 or s[0] not in "+-" or not s[1:].isdigit():
        return None
    hours, minutes = int(s[1:3]), int(s[3:5])
    if hours > 23 or minutes > 59:
        return None
    delta = timedelta(hours=hours, minutes=minutes)
    return timezone(-delta if s[0] == "-" else delta)


# Access logs repeat timestamps heavily (many hits per second).
@functools.lru_cache(maxsize=8192)
def parse_timestamp(s: str) -> datetime | None:
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


def format_timestamp(ts: datetime) -> str:
    """Inverse of parse_timestamp; requires an aware datetime."""
    offset = ts.utcoffset()
    if offset is None:
        raise ValueError("timestamp must be timezone-aware")
    minutes = int(offset.total_seconds()) // 60
    sign = "-" if minutes < 0 else "+"
    minutes = abs(minutes)
    return (f"{ts.day:02d}/{_MONTH_NAME[ts.month - 1]}/{ts.year:04d}"
            f":{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}"
            f" {sign}{minutes // 60:02d}{minutes % 60:02d}")


def _build(host: str, ident: str, authuser: str, datestr: str,
           req_tokens: list[str], status_s: str, bytes_s: str,
           line: str) -> LogRecord | ParseError:
    # Validation order matches field order so the reported reason is the
    # first failing field: date, request, status, bytes.
    ts = parse_timestamp(datestr)
    if ts is None:
        return ParseError(ParseReason.MALFORMED_DATE, line)
    if len(req_tokens) != 3 or not (req_tokens[0] and req_tokens[1] and req_tokens[2]):
        return ParseError(ParseReason.MALFORMED_REQUEST, line)
    if not (status_s.isascii() and status_s.isdigit()):
        return ParseError(ParseReason.BAD_STATUS, line)
    status = int(status_s)
    if not 100 <= status <= 599:
        return ParseError(ParseReason.BAD_STATUS, line)
    if bytes_s == "-":
        nbytes = None
    elif bytes_s.isascii() and bytes_s.isdigit():
        nbytes = int(bytes_s)
    else:
        return ParseError(ParseReason.BAD_BYTES, line)
    return LogRecord(host,
                     None if ident == "-" else ident,
                     None if authuser == "-" else authuser,
                     ts, req_tokens[0], req_tokens[1], req_tokens[2],
                     status, nbytes)


def _split_request(request: str) -> list[str]:
    if "\t" in request:
        return []  # no valid request: a raw tab would split its records-TSV row
    if "\\" in request:
        return _UNESCAPED_SPACE_RE.split(request)
    return request.split(" ")


def _diagnose(line: str) -> ParseError:
    """Cold path: the general regex failed, find the first failing field."""
    matches = _TOKEN_RE.findall(line)
    if matches and matches[-1][1]:
        reason = ParseReason.MALFORMED_DATE if matches[-1][1] == "[" \
            else ParseReason.MALFORMED_REQUEST
        return ParseError(reason, line)
    tokens = [token for token, _ in matches]
    if len(tokens) != 7:
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH, line)
    if tokens[3][:1] != "[" or tokens[3][-1:] != "]":
        return ParseError(ParseReason.MALFORMED_DATE, line)
    if len(tokens[4]) < 2 or tokens[4][0] != '"' or tokens[4][-1] != '"':
        return ParseError(ParseReason.MALFORMED_REQUEST, line)
    result = _build(tokens[0], tokens[1], tokens[2], tokens[3][1:-1],
                    _split_request(tokens[4][1:-1]), tokens[5], tokens[6], line)
    if type(result) is LogRecord:
        # Seven well-formed fields that _LINE_RE still rejects, such as a
        # line with leading blanks or a quoted host: not a CLF line.
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH, line)
    return result


def parse_line(line: str) -> LogRecord | ParseError:
    """Parse one physical CLF line (no trailing newline)."""
    if len(line) > MAX_LINE_BYTES:
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH, line)
    # Fast path: single-space separators, one bracketed date, one quoted
    # request, no escapes. Anything shape-ambiguous falls through to the
    # general regex.
    if "\\" not in line and "\t" not in line and line.count('"') == 2:
        parts = line.split(" ")
        if (len(parts) == 10
                and parts[0] and parts[1] and parts[2]
                and parts[3][:1] == "[" and parts[4][-1:] == "]"
                and "]" not in parts[3] and "]" not in parts[4][:-1]
                and parts[5][:1] == '"' and parts[7][-1:] == '"'
                and parts[8] and parts[9]):
            return _build(parts[0], parts[1], parts[2],
                          parts[3][1:] + " " + parts[4][:-1],
                          [parts[5][1:], parts[6], parts[7][:-1]],
                          parts[8], parts[9], line)
    m = _LINE_RE.match(line)
    if m is None:
        return _diagnose(line)
    host, ident, authuser, datestr, request, status_s, bytes_s = m.groups()
    return _build(host, ident, authuser, datestr,
                  _split_request(request), status_s, bytes_s, line)


def parse_stream(source: Iterable[str]) -> Iterator[ParseOutcome]:
    """One ParseOutcome per non-empty line, in file order; blank lines skipped.

    Line numbers count physical lines. An I/O failure in the source raises
    LogStreamError carrying the last successfully read line number. Chunked
    inputs may be parsed independently and re-merged by line number.
    """
    lineno = 0
    try:
        for raw in source:
            lineno += 1
            line = raw.rstrip("\n")
            if line.endswith("\r"):
                line = line[:-1]
            if not line or line.isspace():
                continue
            yield ParseOutcome(lineno, parse_line(line))
    except (OSError, EOFError) as exc:
        raise LogStreamError(lineno, str(exc)) from exc


def filter_records(records: Iterable[LogRecord],
                   policy: FilterPolicy = DEFAULT_POLICY) -> Iterator[LogRecord]:
    """Keep records whose method and status class both match the policy."""
    methods = policy.methods
    classes = policy.status_classes
    for rec in records:
        if rec.method in methods and rec.status // 100 in classes:
            yield rec


def format_record(rec: LogRecord) -> str:
    """Serialize back to a CLF line, with "-" for absent optional fields."""
    return (f"{rec.host} {rec.ident or '-'} {rec.authuser or '-'}"
            f" [{format_timestamp(rec.timestamp)}]"
            f' "{rec.method} {rec.resource} {rec.protocol}"'
            f" {rec.status} {'-' if rec.bytes is None else rec.bytes}")


def record_tsv_line(rec: LogRecord) -> str:
    """Serialize to one records-TSV row (columns of RECORDS_HEADER)."""
    return "\t".join((
        rec.host,
        rec.ident or "-",
        rec.authuser or "-",
        format_timestamp(rec.timestamp),
        rec.method,
        rec.resource,
        rec.protocol,
        str(rec.status),
        "-" if rec.bytes is None else str(rec.bytes),
    ))


def record_from_tsv_line(line: str, lineno: int) -> LogRecord:
    """Inverse of record_tsv_line, under the field rules of a CLF line.

    Raises ValueError naming the line number and the ParseReason.
    """
    cols = line.split("\t")
    # A name column must be one non-empty CLF field: no blank inside.
    result = (_build(cols[0], cols[1], cols[2], cols[3], cols[4:7], cols[7], cols[8], line)
              if len(cols) == 9 and all(c and " " not in c for c in cols[:3])
              else ParseError(ParseReason.FIELD_COUNT_MISMATCH, line))
    if type(result) is ParseError:
        raise ValueError(f"records file line {lineno}: {result.reason.value}")
    return result


def open_log(path) -> IO[str]:
    """Open a log file for text reading, transparently decompressing gzip.

    Detection is by magic bytes, not filename. latin-1 decoding keeps every
    byte addressable and never fails.
    """
    f = open(path, "rb")
    try:
        magic = f.read(2)
        f.seek(0)
    except OSError:
        f.close()
        raise
    if magic == b"\x1f\x8b":
        # A GzipFile never closes a fileobj it is given, so it opens the path itself.
        f.close()
        f = gzip.open(path)
    return io.TextIOWrapper(f, encoding="latin-1", newline="")
