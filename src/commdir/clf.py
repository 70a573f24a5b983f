"""Common Log Format parsing.

Streaming parser for proxy/web-server access logs in CLF
(``host ident authuser [date] "request" status bytes``), with per-line
error recovery: a bad line yields a typed error value instead of aborting
the file. A record keeps its date as the checked text it was logged as.
Also provides the inverse serializer, whose line parses back to the same
record, a gzip-aware file opener and a method/status filter for
restricting records to page fetches worth mining.

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import gzip
import io
import re
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import IO, Iterable, Iterator

# Longer lines are rejected as FieldCountMismatch before matching. This bounds
# the parse work per line and, since open_log yields at most MAX_LINE_BYTES + 1
# characters of a line, the memory a line takes too. open_log decodes latin-1,
# so the limit counts bytes of the file.
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
    timestamp: str  # as logged, UTC offset included; parse_timestamp converts it
    method: str
    resource: str
    protocol: str
    status: int
    bytes: int | None


@dataclass(slots=True)
class ParseError:
    reason: ParseReason


@dataclass(slots=True)
class ParseOutcome:
    """Result for one non-blank log line: a record or the error that rejected it."""

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

    def keeps(self, rec: LogRecord) -> bool:
        """Whether the policy counts ``rec`` as a page fetch."""
        return rec.method in self.methods and rec.status // 100 in self.status_classes


DEFAULT_POLICY = FilterPolicy()

_MONTH_NAME = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUM = {name: i for i, name in enumerate(_MONTH_NAME, 1)}

# Body of a quoted request: no quote except after a backslash, which escapes
# one character. Unrolled into runs between escapes, so the engine does not
# branch on every character.
_REQUEST = r'[^"\\]*(?:\\.[^"\\]*)*'

# A CLF line: fields separated by runs of blanks (space or tab), the date
# bracketed, the request quoted.
_LINE_RE = re.compile(
    r'([^ \t]+)[ \t]+([^ \t]+)[ \t]+([^ \t]+)[ \t]+'
    r'\[([^\]]*)\][ \t]+'
    r'"(' + _REQUEST + r')"[ \t]+'
    r'([^ \t]+)[ \t]+([^ \t]+)[ \t]*$'
)

# A CLF date in ASCII digits, its offset at most 23 hours 59 minutes either
# way; parse_timestamp leaves the calendar to datetime().
_DATE_RE = re.compile(r"(\d\d)/(" + "|".join(_MONTH_NAME) + r")/(\d{4}):(\d\d):(\d\d):(\d\d)"
                      r" ([+-])([01]\d|2[0-3])([0-5]\d)", re.ASCII)

# Tokens of a line that failed _LINE_RE: a bracketed date, a quoted request
# or a run of non-blanks. An unterminated bracket or quote takes the rest of
# the line and is captured as group 2.
_TOKEN_RE = re.compile(r'(\[[^\]]*\]|"' + _REQUEST + r'"|([\["]).*|[^ \t]+)', re.DOTALL)

# Split the request line on unescaped spaces. "\ " never splits; the rarer
# "\\ " (escaped backslash then space) is treated the same, which keeps
# every parseable resource re-serializable.
_UNESCAPED_SPACE_RE = re.compile(r"(?<!\\) ")


def parse_timestamp(s: str) -> datetime | None:
    """Parse ``dd/Mon/yyyy:HH:MM:SS ±hhmm``, offset -2359 to +2359; None when malformed."""
    m = _DATE_RE.fullmatch(s)
    if m is None:
        return None
    day, month, year, hour, minute, second, sign, oh, om = m.groups()
    offset = timedelta(hours=int(oh), minutes=int(om))
    try:
        return datetime(int(year), _MONTH_NUM[month], int(day), int(hour), int(minute),
                        int(second), tzinfo=timezone(-offset if sign == "-" else offset))
    except ValueError:  # no such date or time, such as 31/Apr or 24:00:00
        return None


# Access logs repeat dates heavily (many hits per second), so the records of
# one date share the text the cache returns.
@functools.lru_cache(maxsize=8192)
def _checked_date(s: str) -> str | None:
    """``s`` when parse_timestamp accepts it, else None."""
    return s if parse_timestamp(s) is not None else None


def _build(host: str, ident: str, authuser: str, datestr: str,
           request: str, status_s: str, bytes_s: str) -> LogRecord | ParseError:
    # Validation order matches field order so the reported reason is the
    # first failing field: date, request, status, bytes.
    date = _checked_date(datestr)
    if date is None:
        return ParseError(ParseReason.MALFORMED_DATE)
    if "\t" in request:  # a raw tab separates CLF fields, never the parts of a request
        return ParseError(ParseReason.MALFORMED_REQUEST)
    # Without a backslash no space is escaped, so str.split gives the regex's
    # parts; splitting every request with the regex made parse_stream ~25% slower.
    req_tokens = (_UNESCAPED_SPACE_RE.split(request) if "\\" in request
                  else request.split(" "))
    if len(req_tokens) != 3 or not (req_tokens[0] and req_tokens[1] and req_tokens[2]):
        return ParseError(ParseReason.MALFORMED_REQUEST)
    if not (status_s.isascii() and status_s.isdigit()):
        return ParseError(ParseReason.BAD_STATUS)
    status = int(status_s)
    if not 100 <= status <= 599:
        return ParseError(ParseReason.BAD_STATUS)
    if bytes_s == "-":
        nbytes = None
    elif bytes_s.isascii() and bytes_s.isdigit():
        nbytes = int(bytes_s)
    else:
        return ParseError(ParseReason.BAD_BYTES)
    return LogRecord(host,
                     None if ident == "-" else ident,
                     None if authuser == "-" else authuser,
                     date, req_tokens[0], req_tokens[1], req_tokens[2],
                     status, nbytes)


def _diagnose(line: str) -> ParseError:
    """Cold path: the general regex failed, find the first failing field."""
    matches = _TOKEN_RE.findall(line)
    if matches and matches[-1][1]:
        reason = ParseReason.MALFORMED_DATE if matches[-1][1] == "[" \
            else ParseReason.MALFORMED_REQUEST
        return ParseError(reason)
    tokens = [token for token, _ in matches]
    if len(tokens) != 7:
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH)
    if tokens[3][:1] != "[" or tokens[3][-1:] != "]":
        return ParseError(ParseReason.MALFORMED_DATE)
    if len(tokens[4]) < 2 or tokens[4][0] != '"' or tokens[4][-1] != '"':
        return ParseError(ParseReason.MALFORMED_REQUEST)
    result = _build(tokens[0], tokens[1], tokens[2], tokens[3][1:-1],
                    tokens[4][1:-1], tokens[5], tokens[6])
    if type(result) is LogRecord:
        # Seven well-formed fields that _LINE_RE still rejects, such as a
        # line with leading blanks or a quoted host: not a CLF line.
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH)
    return result


def parse_line(line: str) -> LogRecord | ParseError:
    """Parse one physical CLF line (no trailing newline)."""
    if len(line) > MAX_LINE_BYTES:
        return ParseError(ParseReason.FIELD_COUNT_MISMATCH)
    m = _LINE_RE.match(line)
    if m is None:
        return _diagnose(line)
    return _build(*m.groups())


def parse_stream(source: Iterable[str]) -> Iterator[ParseOutcome]:
    """One ParseOutcome per non-blank line, in file order; blank lines skipped.

    A line loses its trailing run of CR and LF, so it parses as open_log's
    reading of the same bytes does.
    A failing source (I/O error, truncated or corrupt gzip) raises
    LogStreamError with the number of the last line read, counting every
    physical line, blank ones included.
    """
    lineno = 0
    try:
        for lineno, raw in enumerate(source, 1):
            line = raw.rstrip("\r\n")
            if not line or line.isspace():
                continue
            yield ParseOutcome(parse_line(line))
    except (OSError, EOFError, zlib.error) as exc:
        raise LogStreamError(lineno, str(exc)) from exc


def filter_records(records: Iterable[LogRecord],
                   policy: FilterPolicy = DEFAULT_POLICY) -> Iterator[LogRecord]:
    """Keep records whose method and status class both match the policy."""
    return filter(policy.keeps, records)


def format_record(rec: LogRecord) -> str:
    """Serialize back to a CLF line, with "-" for absent optional fields."""
    return (f"{rec.host} {rec.ident or '-'} {rec.authuser or '-'}"
            f" [{rec.timestamp}]"
            f' "{rec.method} {rec.resource} {rec.protocol}"'
            f" {rec.status} {'-' if rec.bytes is None else rec.bytes}")


class _Log(io.TextIOWrapper):
    """A log opened as text, with CRLF and a lone CR read as LF.

    Iteration yields each line without its line end, and at most
    MAX_LINE_BYTES + 1 characters of it: the rest of a longer line is read
    and dropped, so memory does not grow with line length. It reads the file
    itself, so iterate or ``read``, not both.
    """

    def __iter__(self) -> Iterator[str]:
        cap = MAX_LINE_BYTES + 1
        # The chunks the wrapper's own readline reads, so a failing source
        # fails after the same line. A line inside one chunk is no longer
        # than the chunk.
        read1, size = self.buffer.read1, self._CHUNK_SIZE
        decode = io.IncrementalNewlineDecoder(None, translate=True).decode
        tail = ""  # the unfinished line at the end of the text read so far
        while True:
            data = read1(size)
            lines = decode(data.decode("latin-1"), not data).split("\n")
            lines[0] = (tail + lines[0])[:cap]
            tail = lines.pop()
            yield from lines
            if not data:
                break
        if tail:
            yield tail


def open_log(path) -> IO[str]:
    """Open a log file for text reading, transparently decompressing gzip.

    Detection is by magic bytes, not filename. latin-1 decoding keeps every
    byte addressable and never fails. LF, CRLF and a lone CR each end a line.
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
    return _Log(f, encoding="latin-1")
