"""Traced in-process run of the ``commdir cluster`` pipeline.

Calls the layers' public functions from here, in the order
``cli.cmd_cluster`` uses, with a span around each call (name, start, end,
parent span, workload) and a count at the same boundary. Two layers call
into another layer inside one such call: ``cli.read_records`` into
``clf.parse_stream``, and ``classify.build_usage_vectors`` into
``urls.extract_page_ref``. Those inner calls are timed by wrapping the
module attribute the caller looks up, in this process only, and are booked
as one aggregated child span with its call count. Nothing under ``src/`` is
changed.

Spans are kept in memory and written as JSON when the run ends:

    python3 perfbench/traced.py SPEC.json RESULT.json

SPEC.json holds ``workload``, ``input``, ``taxonomy`` (or null), ``out``
and ``flags`` (the ``commdir cluster`` flags of the workload).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1]["id"] if self._stack else None,
               "workload": self.workload, "calls": 1}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def aggregate(self, name: str, start: float, seconds: float, calls: int) -> None:
        """Book ``calls`` nested calls taking ``seconds`` in all as one child span."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": start + seconds, "parent": self._stack[-1]["id"],
                           "workload": self.workload, "calls": calls})

    def count(self, name: str, value: float) -> None:
        self.counts[name] = value

    def rss(self, name: str) -> None:
        """High-water RSS of this process so far, in MB (ru_maxrss is KiB)."""
        self.count(name, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)


# The wrappers time one call in SAMPLE and scale up: timing every call of a
# function called once per log line would cost more than the call itself.
SAMPLE = 8


class _Timed:
    """Wraps a function: counts its calls and estimates their total time."""

    def __init__(self, fn, generator: bool = False):
        self.fn = fn
        self.calls = 0
        self.sampled = 0.0
        self.first = None
        self.generator = generator

    @property
    def seconds(self) -> float:
        return self.sampled * SAMPLE

    def __call__(self, *args):
        if self.first is None:
            self.first = time.perf_counter()
        if self.generator:
            return self._iterate(self.fn(*args))
        self.calls += 1
        if self.calls % SAMPLE:
            return self.fn(*args)
        t0 = time.perf_counter()
        result = self.fn(*args)
        self.sampled += time.perf_counter() - t0
        return result

    def _iterate(self, items):
        # A generator works when resumed, so time the resumptions.
        resume = items.__next__
        n = 0
        while True:
            n += 1
            if n % SAMPLE:
                try:
                    item = resume()
                except StopIteration:
                    break
            else:
                t0 = time.perf_counter()
                try:
                    item = resume()
                except StopIteration:
                    break
                finally:
                    self.sampled += time.perf_counter() - t0
            self.calls += 1
            yield item


@contextmanager
def nested(tracer: Tracer, name: str, module, attr: str, generator: bool = False):
    """Time calls of ``module.attr`` made inside the block as child span ``name``."""
    timed = _Timed(getattr(module, attr), generator)
    setattr(module, attr, timed)
    try:
        yield timed
    finally:
        setattr(module, attr, timed.fn)
        if timed.first is not None:
            tracer.aggregate(name, timed.first, timed.seconds, timed.calls)


def run_pipeline(spec: dict, tracer: Tracer) -> None:
    """The steps of ``cli.cmd_cluster``, one span per call into a layer."""
    from commdir import artificial, classify, cli, clf, community, metrics, taxonomy, urls

    args = cli.build_parser().parse_args(
        ["cluster", spec["input"], "--out", spec["out"]]
        + (["--taxonomy", spec["taxonomy"]] if spec["taxonomy"] else [])
        + list(spec["flags"]))
    span, count = tracer.span, tracer.count
    written = 0

    def write(path: str, text: str) -> None:
        nonlocal written
        with span("cli.write"):
            cli.atomic_write(path, text)
        written += 1

    with span("cli.cmd_cluster"):
        with span("cli.read_records"), \
                nested(tracer, "clf.parse", clf, "parse_stream", generator=True) as parse:
            records, errors = cli.read_records(args.input)
        count("clf.lines", parse.calls)
        for reason in clf.ParseReason:
            count(f"clf.rejected.{reason.value}", errors.get(reason.value, 0))
        policy = cli._policy_from_args(args)
        with span("clf.filter"):
            kept = list(clf.filter_records(records, policy))
        count("clf.kept", len(kept))
        count("clf.filtered_out", len(records) - len(kept))
        tracer.rss("clf.rss_mb")

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
            with span("urls.extract") as rec:
                refs = [urls.extract_page_ref(r.resource) for r in kept]
                rec["calls"] = len(refs)
            with span("artificial.profile"):
                profiles = artificial.profile_sites(refs)
            with span("artificial.cluster"):
                partition = artificial.cluster_sites(profiles, args.sigma)
            with span("artificial.directory"):
                tax = artificial.build_artificial_directory(partition, profiles)
            count("artificial.site_pairs", len(profiles) * (len(profiles) - 1) // 2)
            count("artificial.clusters", len(partition))
        else:
            with span("taxonomy.load"):
                tax = taxonomy.load_taxonomy(args.taxonomy)
            count("artificial.site_pairs", 0)
            count("artificial.clusters", 0)
        count("taxonomy.categories", len(tax))

        with span("classify.vectors"), \
                nested(tracer, "urls.extract", classify, "extract_page_ref") as extract:
            vectors = classify.build_usage_vectors(kept, tax)
        count("urls.refs", extract.calls + (len(kept) if args.artificial else 0))
        count("classify.users", len(vectors))

        with span("community.graph"):
            graph = community.build_graph(vectors, args.tau)
        with span("community.cliques"):
            member_sets = community.find_communities(
                graph, min_size=args.min_size, keep_singletons=args.keep_singletons)
        with span("community.profile"):
            communities = [community.community_profile(m, vectors) for m in member_sets]
        with span("community.directory"):
            directories = [community.build_community_directory(tax, com, args.theta)
                           for com in communities]
        tracer.rss("community.rss_mb")
        with span("metrics.report"):
            report = metrics.build_report(tax, directories, vectors, parameters)
        count("metrics.overlap_cells", len(directories) ** 2)

        os.makedirs(args.out, exist_ok=True)
        for i, cdir in enumerate(directories, 1):
            stem = os.path.join(args.out, f"community-{i:03d}")
            with span("community.render"):
                text = community.directory_text(cdir, tax)
            write(stem + ".txt", text)
            with span("community.render"):
                doc = community.directory_doc(cdir, tax)
            with span("metrics.render"):
                text = metrics.report_json(doc)
            write(stem + ".json", text)
        with span("classify.render"):
            text = classify.usage_vectors_tsv(vectors)
        write(os.path.join(args.out, "usage-vectors.tsv"), text)
        if args.artificial:
            with span("taxonomy.render"):
                text = taxonomy.serialize_taxonomy(tax)
            write(os.path.join(args.out, "artificial-taxonomy.tsv"), text)
        with span("metrics.render"):
            text = metrics.report_text(report)
        write(os.path.join(args.out, "report.txt"), text)
        with span("metrics.render"):
            text = metrics.report_json(report)
        count("metrics.report_json_mb", len(text.encode("utf-8")) / 1e6)
        write(os.path.join(args.out, "report.json"), text)
        tracer.rss("metrics.rss_mb")
    count("cli.files_written", written)

    # Counts that take work of their own are made after the root span closes.
    resources = {r.resource for r in kept}
    count("urls.distinct_resources", len(resources))
    count("classify.distinct_ratio", len(resources) / len(kept))
    count("classify.unspecified_fraction",
          sum(v.counts.get(classify.UNSPECIFIED, 0) for v in vectors)
          / sum(v.total for v in vectors))
    n = len(graph.vertices)
    pairs = n * (n - 1) // 2
    edges = sum(len(a) for a in graph.adjacency.values()) // 2
    count("community.pairs", pairs)
    count("community.edges", edges)
    count("community.edge_yield", edges / pairs if pairs else 0.0)
    count("community.cliques", len(member_sets))
    count("community.clique_members", sum(len(m) for m in member_sets))


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = Tracer(spec["workload"])
    run_pipeline(spec, tracer)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
