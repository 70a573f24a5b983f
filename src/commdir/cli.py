"""Command-line pipeline over access-log files.

Subcommands mirror the mining workflow: ``parse`` rewrites a raw log as
canonical CLF lines, ``sites`` lists visited sites and directories,
``cluster`` runs the full community-directory pipeline, and ``taxonomy``
edits/prints taxonomy files. Outputs are deterministic byte-for-byte for
equal inputs and flags. Files are written atomically, and ``cluster``
renders all of its files before it writes the first.

Exit codes: 0 success, 1 usage or input error or out of memory, 2 no
records parsed (for ``sites`` and ``cluster``: none left to mine), 3 clique
explosion guard tripped. ``main`` reports every failure, no records to parse
or mine included, as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import stat
import sys
from collections import Counter
from decimal import Decimal
from typing import IO, Iterator

from . import artificial, clf, community, metrics
from . import classify as classify_mod
from . import taxonomy as taxonomy_mod
from .classify import user_key
from .clf import FilterPolicy, LogRecord
from .urls import PageRef, extract_page_ref

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_EXPLOSION = 3

# The files of ``--out`` that a ``cluster`` run writes only for some inputs or flags,
# and the per-community text trees that ``communities.txt`` replaced.
_STALE_OUTPUT = re.compile(r"community-[0-9]{3,}\.(?:txt|json)\Z|artificial-taxonomy\.tsv\Z")


class NoRecordsError(Exception):
    """Nothing is left to mine once the input is parsed and policy-filtered."""


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
def atomic_writer(path: str) -> Iterator[IO[bytes]]:
    """A binary file that replaces ``path`` when the block completes; on failure, nothing does.

    Like ``open(path, "w")``, it writes through a symlink, a new file gets
    ``0o666`` less the umask, and a replaced file keeps its mode.
    """
    # realpath lstats each component of the path: only a link needs it.
    target = os.path.realpath(path) if os.path.islink(path) else os.path.abspath(path)
    tmp = os.path.join(os.path.dirname(target), f".tmp-{os.urandom(8).hex()}~")
    with _about(f"cannot write {path}"):
        # os.open, not mkstemp (always 0600), so the umask applies as with open().
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        with _about(f"cannot write {path}"):
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    with atomic_writer(path) as f:
        f.write(text.encode("utf-8"))


def _read_log(path: str, errors: Counter) -> Iterator[LogRecord]:
    """The records of a CLF log, plain or gzip; each other line adds the
    reason it was rejected to ``errors``. Failing to open or read the log
    raises ``cannot read <path>: ...``."""
    with _about(f"cannot read {path}"), clf.open_log(path) as f:
        for outcome in clf.parse_stream(f):
            if outcome.ok:
                yield outcome.result
            else:
                errors[outcome.result.reason.value] += 1


def read_records(path: str) -> tuple[list[LogRecord], Counter]:
    """Parse a CLF log, plain or gzip: its records, and a Counter of the
    reasons its other lines were rejected.

    No command reads a log through it: its only callers are
    ``perfbench/traced.py`` and the tests that pin what it reads there,
    until the benchmark runs ``main`` (ROADMAP item 1).
    """
    errors: Counter = Counter()
    return list(_read_log(path, errors)), errors


def _policy_flags(policy: FilterPolicy) -> tuple[str, str]:
    """``policy`` as the values of --policy-methods and --policy-status."""
    return ",".join(sorted(policy.methods)), ",".join(map(str, sorted(policy.status_classes)))


def _policy_from_args(args) -> FilterPolicy:
    methods = frozenset(m.strip() for m in args.policy_methods.split(",") if m.strip())
    statuses = {c.strip() for c in args.policy_status.split(",")} - {""}
    if not statuses <= set("12345"):
        raise ValueError("bad --policy-status: expected status classes 1-5 like '2,3'")
    classes = frozenset(map(int, statuses))
    if not methods or not classes:
        raise ValueError("policy must keep at least one method and status class")
    return FilterPolicy(methods=methods, status_classes=classes)


def _read_input(args) -> tuple[FilterPolicy, dict[tuple[str, str], int], dict[str, PageRef],
                               Counter, int]:
    """Read ``args.input`` and apply the policy flags: (policy, hit count of
    each (user, resource) pair it keeps, PageRef of each of their resources,
    parse-error Counter, number of records it removed). No record is held
    once it is counted. The PageRefs are extracted here, after the read, once
    per distinct resource. Raises NoRecordsError, saying what was read, when it keeps none."""
    policy = _policy_from_args(args)
    keeps = policy.keeps
    hits: dict[tuple[str, str], int] = {}
    errors: Counter = Counter()
    filtered_out = 0
    for rec in _read_log(args.input, errors):
        if keeps(rec):
            key = (user_key(rec), rec.resource)
            hits[key] = hits.get(key, 0) + 1
        else:
            filtered_out += 1
    if not hits:
        raise NoRecordsError(f"no records to mine: {_by_reason(errors, 'lines rejected')}, "
                             f"{filtered_out} filtered out")
    pages = {r: extract_page_ref(r) for r in dict.fromkeys(r for _, r in hits)}
    return policy, hits, pages, errors, filtered_out


def _page_hits(hits: dict[tuple[str, str], int], pages: dict[str, PageRef]) -> Counter:
    """PageRef -> hits, from the hits of (user, resource) pairs and the
    PageRef of each resource, which ``_read_input`` extracted."""
    per_resource: dict[str, int] = {}
    for (_, resource), n in hits.items():
        per_resource[resource] = per_resource.get(resource, 0) + n
    refs: Counter = Counter()
    for resource, n in per_resource.items():
        refs[pages[resource]] += n
    return refs


def _by_reason(errors: Counter, what: str) -> str:
    """``"N <what>"``, then the count of each reason when N > 0."""
    detail = ", ".join(f"{reason}: {n}" for reason, n in sorted(errors.items()))
    return f"{sum(errors.values())} {what}" + (f" ({detail})" if detail else "")


def cmd_parse(args) -> int:
    records = 0
    errors: Counter = Counter()
    sys.stdout.flush()
    # open_log decodes latin-1, so each line goes out in the bytes it came in;
    # a text-only stdout, such as a StringIO, takes the decoded lines as they are.
    if args.out:
        sink, binary = atomic_writer(args.out), True
    else:
        binary = hasattr(sys.stdout, "buffer")
        sink = contextlib.nullcontext(sys.stdout.buffer if binary else sys.stdout)
    with sink as out:
        for record in _read_log(args.log, errors):
            records += 1
            line = f"{clf.format_record(record)}\n"
            out.write(line.encode("latin-1") if binary else line)
        out.flush()  # so that a closed stdout fails here, inside main
        if not records:  # raised in the block, so no --out file is left
            raise NoRecordsError(f"no records parsed: {sum(errors.values())} lines read, "
                                 f"{_by_reason(errors, 'rejected')}")
    print(f"{records + sum(errors.values())} lines, {records} records, "
          f"{_by_reason(errors, 'errors')}", file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def cmd_sites(args) -> int:
    site_hits: Counter = Counter()
    local = 0
    dir_hits: Counter = Counter()
    for ref, n in _page_hits(*_read_input(args)[1:3]).items():
        if ref.site is None:
            local += n
            continue
        site_hits[ref.site] += n
        if args.dirs and ref.directories:
            dir_hits[(ref.site, "/".join(ref.directories))] += n
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
    policy, hits, pages, parse_errors, filtered_out = _read_input(args)
    methods, status = _policy_flags(policy)

    parameters = {
        "tau": args.tau,
        "theta": args.theta,
        "min_size": args.min_size,
        "keep_singletons": args.keep_singletons,
        "policy_methods": methods,
        "policy_status": status,
        "taxonomy_source": "artificial" if args.artificial else "file",
    }
    # Every file of the run, rendered before --out is touched: a failure leaves it as it was.
    outputs: dict[str, str] = {}
    if args.artificial:
        parameters["sigma"] = args.sigma
        profiles = artificial.profile_sites(_page_hits(hits, pages))
        partition = artificial.cluster_sites(profiles, args.sigma)
        tax = artificial.build_artificial_directory(partition, profiles)
        outputs["artificial-taxonomy.tsv"] = taxonomy_mod.serialize_taxonomy(tax)
    else:
        with _about(f"taxonomy {args.taxonomy}"):
            tax = taxonomy_mod.load_taxonomy(args.taxonomy)

    vectors = classify_mod.count_usage(hits, pages, tax)
    graph = community.build_graph(vectors, args.tau)
    member_sets = community.find_communities(
        graph, min_size=args.min_size, keep_singletons=args.keep_singletons)
    by_user = {v.user: v for v in vectors}
    communities = [community.community_profile(m, [by_user[u] for u in m]) for m in member_sets]
    directories = [community.build_community_directory(tax, com, args.theta)
                   for com in communities]
    report = metrics.build_report(tax, directories, vectors, parameters)
    report["parse_errors"] = dict(sorted(parse_errors.items()))
    report["filtered_out"] = filtered_out

    # One text file holds every text tree: creating a file per community took
    # most of a run that finds hundreds of them.
    blocks = []
    for i, cdir in enumerate(directories, 1):
        stem = f"community-{i:03d}"
        outputs[stem + ".json"] = metrics.report_json(community.directory_doc(cdir, tax))
        blocks.append(f"{stem}\n{community.directory_text(cdir, tax)}")
    outputs["communities.txt"] = "\n".join(blocks)
    outputs["usage-vectors.tsv"] = classify_mod.usage_vectors_tsv(vectors)
    outputs["report.txt"] = metrics.report_text(report)
    outputs["report.json"] = metrics.report_json(report)

    with _about(f"cannot create directory {args.out}"):
        os.makedirs(args.out, exist_ok=True)
    for name, text in outputs.items():
        atomic_write(os.path.join(args.out, name), text)
    # An earlier run into the same directory may have left outputs this one has not.
    for stale in [os.path.join(args.out, name) for name in os.listdir(args.out)
                  if name not in outputs and _STALE_OUTPUT.match(name)]:
        with _about(f"cannot remove {stale}"):
            os.unlink(stale)
    sys.stdout.write(outputs["report.txt"])
    return EXIT_OK


def _show_taxonomy(tax: taxonomy_mod.Taxonomy) -> Iterator[str]:
    for path, cat in tax.items():
        segment = path.rsplit("/", 1)[-1]
        line = f"{'  ' * taxonomy_mod.depth(path)}{segment}  w={cat.weight:.2f}"
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
    cat = tax.get(args.path)
    if args.action == "add" and cat is not None:
        raise ValueError(f"duplicate path: {args.path!r} already exists (use update)")
    if args.action == "update" and cat is None:
        raise ValueError(f"unknown path: {args.path!r} (use add)")
    # A flag that update leaves out keeps the category's value, a depth default too.
    keywords = (cat.keywords if cat and args.keywords is None
                else [k.strip() for k in (args.keywords or "").split(",") if k.strip()])
    weight = cat.weight if cat and cat.explicit_weight and args.weight is None else args.weight
    tax = taxonomy_mod.add_or_update_category(tax, args.path, keywords, weight)
    atomic_write(args.file, taxonomy_mod.serialize_taxonomy(tax))
    done = "added" if args.action == "add" else "updated"
    print(f"{done} {args.path} ({len(tax)} categories)")
    return EXIT_OK


def _number(kind: type, low: float, high: float, what: str):
    """argparse type: a ``kind`` value in [low, high] (so never NaN) whose decimal is
    the flag's (0.40 and 0.4 are, 1e-400 and 0.0 are not), described as ``what``."""
    def convert(text: str):
        with contextlib.suppress(ValueError):
            value = kind(text) or kind()  # -0.0 becomes 0.0
            if low <= value <= high and Decimal(text) == Decimal(str(value)):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    methods, status = _policy_flags(clf.DEFAULT_POLICY)
    p.add_argument("--policy-methods", default=methods, metavar="M1,M2",
                   help="HTTP methods to keep (default: %(default)s)")
    p.add_argument("--policy-status", default=status, metavar="C1,C2",
                   help="status classes to keep, 2 means 2xx (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commdir",
                     description="Mine proxy access logs into community web directories.")
    sub = parser.add_subparsers(dest="command", required=True)
    unit = _number(float, 0.0, 1.0, "a number in [0, 1] that a float prints back")

    p = sub.add_parser("parse", help="parse a CLF log into canonical records")
    p.add_argument("log", help="access log file (plain or gzip)")
    p.add_argument("--out", help="write the records as CLF lines here instead of stdout")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("sites", help="list visited sites (and directories)")
    p.add_argument("input", help="CLF log (plain or gzip), such as the output of 'parse'")
    p.add_argument("--dirs", action="store_true",
                   help="also list (site, directory) pairs")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_sites)

    p = sub.add_parser("cluster",
                       help="discover communities and emit their directories")
    p.add_argument("input", help="CLF log (plain or gzip), such as the output of 'parse'")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--taxonomy", help="taxonomy file to classify against")
    group.add_argument("--artificial", action="store_true",
                       help="build an artificial taxonomy from the log itself")
    p.add_argument("--sigma", default=artificial.DEFAULT_SIGMA,
                   type=_number(float, 0.0, sys.float_info.max,
                                "a finite number >= 0 that a float prints back"),
                   help="site-clustering Jaccard threshold for --artificial")
    p.add_argument("--tau", default=community.DEFAULT_TAU, type=unit,
                   help="user-similarity edge threshold")
    p.add_argument("--theta", default=community.DEFAULT_THETA, type=unit,
                   help="category score selection threshold")
    p.add_argument("--min-size", default=community.DEFAULT_MIN_SIZE,
                   type=_number(int, 1, sys.maxsize, "an integer >= 1"),
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
    p.add_argument("--keywords", help="comma-separated keywords (update: omitted = kept)")
    p.add_argument("--weight", type=unit,
                   help="explicit weight in [0,1]; omitted = depth default (update: kept)")
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
    except NoRecordsError as exc:
        code, message = EXIT_EMPTY, str(exc)
    except community.ExplosionGuardError as exc:
        code, message = EXIT_EXPLOSION, str(exc)
    except (OSError, ValueError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except MemoryError:
        code, message = EXIT_USAGE, "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
