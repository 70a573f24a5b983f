"""Command-line pipeline over access-log files.

Subcommands mirror the mining workflow: ``parse`` turns a raw log into
canonical records, ``sites`` lists visited sites and directories,
``cluster`` runs the full community-directory pipeline, and ``taxonomy``
edits/prints taxonomy files. Outputs are deterministic byte-for-byte for
equal inputs and flags, and files are written atomically.

Exit codes: 0 success, 1 usage or input error, 2 no records parsed,
3 clique explosion guard tripped. ``main`` reports every failure as one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import tempfile
from collections import Counter
from typing import IO, Iterator

from . import artificial, clf, community, metrics
from . import classify as classify_mod
from . import taxonomy as taxonomy_mod
from .clf import FilterPolicy, LogRecord
from .urls import extract_page_ref

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_EXPLOSION = 3

RECORDS_HEADER = ("# host\tident\tauthuser\ttimestamp\tmethod\tresource"
                  "\tprotocol\tstatus\tbytes")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 means "no records" here.
    # Like every other failure, bad usage is reported on one "error:" line.
    def error(self, message):
        sys.stderr.write(f"error: {message} (see '{self.prog} --help')\n")
        raise SystemExit(EXIT_USAGE)


@contextlib.contextmanager
def _about(what: str) -> Iterator[None]:
    """Prefix the message of an OSError or ValueError raised in the block."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{what}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` when the block completes; on failure, nothing does."""
    directory = os.path.dirname(os.path.abspath(path))
    with _about(f"cannot write {path}"):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    with atomic_writer(path) as f:
        f.write(text)


def record_tsv_line(rec: LogRecord) -> str:
    return "\t".join((
        rec.host,
        rec.ident or "-",
        rec.authuser or "-",
        clf.format_timestamp(rec.timestamp),
        rec.method,
        rec.resource,
        rec.protocol,
        str(rec.status),
        "-" if rec.bytes is None else str(rec.bytes),
    ))


def record_from_tsv_line(line: str, lineno: int) -> LogRecord:
    cols = line.split("\t")
    if len(cols) != 9:
        raise ValueError(f"records file line {lineno}: expected 9 columns, got {len(cols)}")
    ts = clf.parse_timestamp(cols[3])
    if ts is None:
        raise ValueError(f"records file line {lineno}: bad timestamp {cols[3]!r}")
    try:
        status = int(cols[7])
        nbytes = None if cols[8] == "-" else int(cols[8])
    except ValueError:
        raise ValueError(f"records file line {lineno}: bad status/bytes") from None
    return LogRecord(cols[0],
                     None if cols[1] == "-" else cols[1],
                     None if cols[2] == "-" else cols[2],
                     ts, cols[4], cols[5], cols[6], status, nbytes)


def read_records(path: str) -> tuple[list[LogRecord], Counter]:
    """Read either a raw CLF log or a ``parse``-produced records TSV.

    A leading tab-containing ``#`` header marks the TSV form. Returns the
    records plus a Counter of parse-error reasons (empty for TSV input).
    """
    errors: Counter = Counter()
    with clf.open_log(path) as f:
        first = f.readline()
        if first.startswith("#") and "\t" in first:
            records = []
            for lineno, raw in enumerate(f, 2):
                line = raw.rstrip("\r\n")
                if not line or line.startswith("#"):
                    continue
                records.append(record_from_tsv_line(line, lineno))
            return records, errors
        records = []
        for outcome in clf.parse_stream(itertools.chain([first], f)):
            if outcome.ok:
                records.append(outcome.result)
            else:
                errors[outcome.result.reason.value] += 1
    return records, errors


def _policy_from_args(args) -> FilterPolicy:
    methods = frozenset(m.strip() for m in args.policy_methods.split(",") if m.strip())
    try:
        classes = frozenset(int(c) for c in args.policy_status.split(",") if c.strip())
    except ValueError:
        raise ValueError("bad --policy-status: expected digits like '2,3'") from None
    if not methods or not classes:
        raise ValueError("policy must keep at least one method and status class")
    return FilterPolicy(methods=methods, status_classes=classes)


def _read_input(args) -> tuple[FilterPolicy, list[LogRecord], Counter, int]:
    """Read ``args.input`` and apply the policy flags: (policy, records it
    keeps, parse-error Counter, number of records it removed)."""
    policy = _policy_from_args(args)
    with _about(f"cannot read {args.input}"):
        records, errors = read_records(args.input)
    kept = list(clf.filter_records(records, policy))
    return policy, kept, errors, len(records) - len(kept)


def cmd_parse(args) -> int:
    with _about(f"cannot read {args.log}"):
        stream = clf.open_log(args.log)
    lines = 0
    records = 0
    errors: Counter = Counter()
    with stream, (atomic_writer(args.out) if args.out
                  else contextlib.nullcontext(sys.stdout)) as out:
        out.write(RECORDS_HEADER + "\n")
        for outcome in clf.parse_stream(stream):
            lines += 1
            if outcome.ok:
                records += 1
                out.write(record_tsv_line(outcome.result) + "\n")
            else:
                errors[outcome.result.reason.value] += 1
    total_errors = sum(errors.values())
    summary = f"{lines} lines, {records} records, {total_errors} errors"
    if total_errors:
        detail = ", ".join(f"{reason}: {n}" for reason, n in sorted(errors.items()))
        summary += f" ({detail})"
    print(summary, file=sys.stderr if not args.out else sys.stdout)
    return EXIT_OK if records else EXIT_EMPTY


def cmd_sites(args) -> int:
    refs = [extract_page_ref(r.resource) for r in _read_input(args)[1]]
    if not refs:
        print("0 sites, 0 local")
        return EXIT_EMPTY
    site_hits: Counter = Counter()
    local = 0
    dir_hits: Counter = Counter()
    for ref in refs:
        if ref.site is None:
            local += 1
            continue
        site_hits[ref.site] += 1
        if args.dirs and ref.directories:
            dir_hits[(ref.site, "/".join(ref.directories))] += 1
    for site, hits in sorted(site_hits.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{site}\t{hits}")
    if args.dirs and dir_hits:
        print()
        for (site, dirpath), hits in sorted(dir_hits.items(),
                                            key=lambda kv: (-kv[1], kv[0])):
            print(f"{site}\t{dirpath}\t{hits}")
    print(f"{len(site_hits)} sites, {local} local")
    return EXIT_OK


def cmd_cluster(args) -> int:
    policy, kept, parse_errors, filtered_out = _read_input(args)
    if not kept:
        print("no records to mine after filtering", file=sys.stderr)
        return EXIT_EMPTY

    parameters = {
        "tau": args.tau,
        "theta": args.theta,
        "min_size": args.min_size,
        "keep_singletons": args.keep_singletons,
        "policy_methods": ",".join(sorted(policy.methods)),
        "policy_status": ",".join(str(c) for c in sorted(policy.status_classes)),
        "taxonomy_source": "artificial" if args.artificial else "file",
    }
    if args.artificial:
        parameters["sigma"] = args.sigma
        refs = [extract_page_ref(r.resource) for r in kept]
        profiles = artificial.profile_sites(refs)
        partition = artificial.cluster_sites(profiles, args.sigma)
        tax = artificial.build_artificial_directory(partition, profiles)
    else:
        with _about(f"taxonomy {args.taxonomy}"):
            tax = taxonomy_mod.load_taxonomy(args.taxonomy)

    vectors = classify_mod.build_usage_vectors(kept, tax)
    graph = community.build_graph(vectors, args.tau)
    member_sets = community.find_communities(
        graph, min_size=args.min_size, keep_singletons=args.keep_singletons)
    communities = [community.community_profile(m, vectors) for m in member_sets]
    directories = [community.build_community_directory(tax, com, args.theta)
                   for com in communities]
    report = metrics.build_report(tax, directories, vectors, parameters)
    report["parse_errors"] = dict(sorted(parse_errors.items()))
    report["filtered_out"] = filtered_out

    with _about(f"cannot create directory {args.out}"):
        os.makedirs(args.out, exist_ok=True)
    for i, cdir in enumerate(directories, 1):
        stem = os.path.join(args.out, f"community-{i:03d}")
        atomic_write(stem + ".txt", community.directory_text(cdir, tax))
        atomic_write(stem + ".json",
                     metrics.report_json(community.directory_doc(cdir, tax)))
    atomic_write(os.path.join(args.out, "usage-vectors.tsv"),
                 classify_mod.usage_vectors_tsv(vectors))
    if args.artificial:
        atomic_write(os.path.join(args.out, "artificial-taxonomy.tsv"),
                     taxonomy_mod.serialize_taxonomy(tax))
    text = metrics.report_text(report)
    atomic_write(os.path.join(args.out, "report.txt"), text)
    atomic_write(os.path.join(args.out, "report.json"), metrics.report_json(report))
    sys.stdout.write(text)
    return EXIT_OK


def _show_taxonomy(tax: taxonomy_mod.Taxonomy) -> Iterator[str]:
    for path, d in tax.walk():
        cat = tax.categories[path]
        segment = path.rsplit("/", 1)[-1]
        line = f"{'  ' * d}{segment}  w={cat.weight:.2f}"
        if cat.keywords:
            line += "  " + ",".join(sorted(cat.keywords))
        yield line


def cmd_taxonomy(args) -> int:
    if args.action != "show" and not args.path:
        raise ValueError("taxonomy add/update needs a category path")
    with _about(f"taxonomy {args.file}"):
        tax = taxonomy_mod.load_taxonomy(args.file)
    if args.action == "show":
        for line in _show_taxonomy(tax):
            print(line)
        return EXIT_OK
    keywords = [k.strip() for k in (args.keywords or "").split(",") if k.strip()]
    if args.action == "add" and args.path in tax:
        raise ValueError(f"duplicate path: {args.path!r} already exists (use update)")
    if args.action == "update" and args.path not in tax:
        raise ValueError(f"unknown path: {args.path!r} (use add)")
    tax = taxonomy_mod.add_or_update_category(tax, args.path, keywords, args.weight)
    atomic_write(args.file, taxonomy_mod.serialize_taxonomy(tax))
    print(f"{args.action}d {args.path} ({len(tax)} categories)")
    return EXIT_OK


def _unit_interval(text: str) -> float:
    """argparse type of --tau and --theta: a number in [0, 1]."""
    with contextlib.suppress(ValueError):
        if 0.0 <= float(text) <= 1.0:
            return float(text)
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy-methods", default="GET", metavar="M1,M2",
                   help="HTTP methods to keep (default: GET)")
    p.add_argument("--policy-status", default="2", metavar="C1,C2",
                   help="status classes to keep, 2 means 2xx (default: 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commdir",
                     description="Mine proxy access logs into community web directories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a CLF log into canonical records")
    p.add_argument("log", help="access log file (plain or gzip)")
    p.add_argument("--out", help="write records TSV here instead of stdout")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("sites", help="list visited sites (and directories)")
    p.add_argument("input", help="CLF log or records TSV from 'parse'")
    p.add_argument("--dirs", action="store_true",
                   help="also list (site, directory) pairs")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_sites)

    p = sub.add_parser("cluster",
                       help="discover communities and emit their directories")
    p.add_argument("input", help="CLF log or records TSV from 'parse'")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--taxonomy", help="taxonomy file to classify against")
    group.add_argument("--artificial", action="store_true",
                       help="build an artificial taxonomy from the log itself")
    p.add_argument("--sigma", type=float, default=artificial.DEFAULT_SIGMA,
                   help="site-clustering Jaccard threshold for --artificial")
    p.add_argument("--tau", type=_unit_interval, default=community.DEFAULT_TAU,
                   help="user-similarity edge threshold")
    p.add_argument("--theta", type=_unit_interval, default=community.DEFAULT_THETA,
                   help="category score selection threshold")
    p.add_argument("--min-size", type=int, default=community.DEFAULT_MIN_SIZE,
                   help="smallest community to keep")
    p.add_argument("--keep-singletons", action="store_true",
                   help="emit isolated users as singleton communities")
    p.add_argument("--out", default="communities",
                   help="output directory (default: communities)")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("taxonomy", help="edit or print a taxonomy file")
    p.add_argument("action", choices=["add", "update", "show"])
    p.add_argument("file", help="taxonomy file")
    p.add_argument("path", nargs="?", help="category path (add/update)")
    p.add_argument("--keywords", help="comma-separated keywords")
    p.add_argument("--weight", type=float,
                   help="explicit weight in [0,1]; omitted = depth default")
    p.set_defaults(func=cmd_taxonomy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The one place where an exception becomes an exit code and one line.
    try:
        return args.func(args)
    except community.ExplosionGuardError as exc:
        code, message = EXIT_EXPLOSION, str(exc)
    except (OSError, ValueError) as exc:
        code, message = EXIT_USAGE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
