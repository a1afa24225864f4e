"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the reproducible paper experiments.
``run EXP-ID [...]``
    Run one or more experiments (tables/figures) and print the results.
``extract``
    Run the pipeline on a generated corpus and print the facets.
    Steps 1-2 run in one thread of control; ``--cache PATH`` keeps the
    resource answers in a persistent SQLite file across runs, and the
    output is bit-for-bit identical with a cold or a warm cache.
    ``--trace-out PATH`` writes a JSONL trace of nested spans and
    ``--metrics`` prints the metrics registry after the run.
``stream``
    Incrementally ingest ``*.jsonl`` batch files from a directory with
    checkpoint/resume (``--run-dir`` holds the checkpoint database);
    results are byte-for-byte identical to ``extract`` on the union
    corpus.
    ``--make-batches N`` first splits a generated corpus into N files.
``trace FILE``
    Pretty-print a JSONL trace produced by ``extract --trace-out``.
``browse``
    Demonstrate the faceted interface (search, drill-down, dice).
``index build --output PATH`` / ``index inspect PATH [--verify]``
    Compile a pipeline run into the read-only serving artifact
    (schema ``repro.index/1``) or print/verify an artifact's manifest.
``serve INDEX [--host H] [--port P]``
    Serve the faceted-browsing HTTP API over an artifact; prints
    ``serving on http://host:port`` once bound (``--port 0`` = any
    free port).
``lint [PATH...]``
    Run the project-invariant static analyzer (determinism, taint,
    event-loop and thread safety, resource leaks, contract drift; see
    :mod:`repro.devtools`) and exit non-zero on findings — the same gate
    CI enforces.

Scale with ``--scale`` (or the REPRO_SCALE environment variable).
Diagnostics go to stderr through the structured logger — tune them
with ``--log-format json|text`` and ``--log-level`` (or
REPRO_LOG_LEVEL); results stay on stdout.
"""

from __future__ import annotations

import argparse
import sys

from .config import ParallelConfig, ReproConfig
from .errors import ConfigError, ReproError
from .observability import (
    Observability,
    ResourceStats,
    configure_logging,
    get_logger,
)

log = get_logger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Automatic Extraction of Useful Facet "
            "Hierarchies from Text Databases' (Dakka & Ipeirotis, ICDE 2008)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="corpus scale relative to the paper (default: REPRO_SCALE or 1.0)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--log-format",
        default="text",
        choices=["text", "json"],
        help="structured-log rendering on stderr (default: text)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="log level (default: REPRO_LOG_LEVEL or WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list paper experiments")

    run = sub.add_parser("run", help="run experiments by id")
    run.add_argument("experiments", nargs="+", metavar="EXP-ID")

    extract = sub.add_parser("extract", help="extract facets from a corpus")
    extract.add_argument("--dataset", default="SNYT", choices=["SNYT", "SNB", "MNYT"])
    extract.add_argument("--top", type=int, default=20, help="facet terms to print")
    extract.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persistent SQLite resource-cache file shared across runs",
    )
    extract.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a JSONL trace (nested spans) of the run to PATH",
    )
    extract.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (counters/timers) after the run",
    )

    trace = sub.add_parser(
        "trace", help="pretty-print a JSONL trace written by extract --trace-out"
    )
    trace.add_argument("path", metavar="FILE", help="JSONL trace file")
    trace.add_argument(
        "--max-children",
        type=int,
        default=None,
        metavar="N",
        help="show at most N children per span (default: all)",
    )

    stream = sub.add_parser(
        "stream",
        help="incrementally ingest batch files with checkpoint/resume",
    )
    stream.add_argument(
        "--input",
        required=True,
        metavar="DIR",
        help="directory of *.jsonl batch files (lexicographic order)",
    )
    stream.add_argument(
        "--run-dir",
        required=True,
        metavar="DIR",
        help="checkpoint directory for this stream (one SQLite database)",
    )
    stream.add_argument(
        "--make-batches",
        type=int,
        default=None,
        metavar="N",
        help="first split the --dataset corpus into N batch files in --input",
    )
    stream.add_argument(
        "--dataset",
        default="SNYT",
        choices=["SNYT", "SNB", "MNYT"],
        help="corpus used with --make-batches",
    )
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint after every N ingested batches (default: 1)",
    )
    stream.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing checkpoints and re-ingest everything",
    )
    stream.add_argument(
        "--top", type=int, default=20, help="facet terms to print"
    )

    sub.add_parser("browse", help="demonstrate the faceted interface")

    index = sub.add_parser(
        "index", help="build or inspect read-only serving index artifacts"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="run the pipeline and compile the result into an artifact",
    )
    index_build.add_argument(
        "--dataset", default="SNYT", choices=["SNYT", "SNB", "MNYT"]
    )
    index_build.add_argument(
        "--output", required=True, metavar="PATH", help="artifact file to write"
    )
    index_inspect = index_sub.add_parser(
        "inspect", help="print an artifact's manifest"
    )
    index_inspect.add_argument("path", metavar="INDEX", help="artifact file")
    index_inspect.add_argument(
        "--verify",
        action="store_true",
        help="recompute content checksums and fail on mismatch",
    )

    serve = sub.add_parser(
        "serve", help="serve the faceted-browsing HTTP API over an artifact"
    )
    serve.add_argument("path", metavar="INDEX", help="artifact file to serve")
    serve.add_argument("--host", default=None, help="bind address")
    serve.add_argument(
        "--port", type=int, default=None, help="bind port (0 = any free port)"
    )
    serve.add_argument(
        "--limit", type=int, default=None, help="default rows per response"
    )
    serve.add_argument(
        "--max-limit", type=int, default=None, help="hard row cap per response"
    )
    serve.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock budget (exceeded -> 503)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant static analyzer (repro.devtools)",
    )
    from .devtools.cli import add_lint_arguments

    add_lint_arguments(lint)

    report = sub.add_parser(
        "report", help="assemble benchmarks/results/ into a markdown report"
    )
    report.add_argument(
        "--results", default="benchmarks/results", help="results directory"
    )
    report.add_argument(
        "--output", default="REPORT.md", help="output markdown path"
    )
    return parser


def _config(args: argparse.Namespace) -> ReproConfig:
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.seed is not None:
        kwargs["seed"] = args.seed
    parallel = _parallel_config(args)
    if parallel is not None:
        kwargs["parallel"] = parallel
    return ReproConfig(**kwargs)


def _parallel_config(args: argparse.Namespace) -> ParallelConfig | None:
    """A ParallelConfig from ``--cache``, or None when it was not given."""
    cache = getattr(args, "cache", None)
    if cache is None:
        return None
    return ParallelConfig(cache_path=cache)


def _observability(args: argparse.Namespace) -> Observability | None:
    """An enabled bundle when any observability flag was given."""
    if getattr(args, "trace_out", None) or getattr(args, "metrics", False):
        return Observability.enabled()
    return None


def _cmd_list() -> int:
    from .harness import EXPERIMENTS

    for experiment in EXPERIMENTS.values():
        print(f"{experiment.experiment_id:<10} {experiment.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .harness import EXPERIMENTS, run_experiment

    config = _config(args)
    status = 0
    for experiment_id in args.experiments:
        if experiment_id not in EXPERIMENTS:
            log.error("run.unknown_experiment", experiment=experiment_id)
            print(f"unknown experiment: {experiment_id}", file=sys.stderr)
            status = 1
            continue
        print(f"== {experiment_id}: {EXPERIMENTS[experiment_id].title} ==")
        result = run_experiment(experiment_id, config)
        if hasattr(result, "format_table"):
            print(result.format_table())
        elif hasattr(result, "format_summary"):
            print(result.format_summary())
        else:
            print(result)
        print()
    return status


def _cmd_extract(args: argparse.Namespace) -> int:
    from .builder import FacetPipelineBuilder
    from .corpus import build_corpus

    config = _config(args)
    corpus = build_corpus(args.dataset, config)
    obs = _observability(args)
    log.info(
        "extract.start",
        dataset=corpus.name,
        documents=len(corpus),
        traced=bool(args.trace_out),
    )
    builder = FacetPipelineBuilder(config)
    if obs is not None:
        builder.with_observability(obs)
    result = builder.build().run(corpus.documents)
    for candidate in result.facet_terms[: args.top]:
        print(
            f"{candidate.term:<32} df {candidate.df_original:>5} -> "
            f"{candidate.df_contextualized:>5}  score {candidate.score:10.1f}"
        )
    if obs is not None and args.trace_out:
        obs.tracer.write_jsonl(args.trace_out)
        log.info("extract.trace_written", path=args.trace_out)
    if obs is not None and args.metrics:
        print()
        print(obs.metrics.format_table())
        print()
        print(_format_resource_stats(result.resource_stats))
    return 0


def _format_resource_stats(stats: dict[str, ResourceStats]) -> str:
    """Per-resource query-engine table: tier hits, coalescing, batches."""
    lines = [
        "resource cache engines",
        f"  {'namespace':<44} {'lru%':>6} {'hit%':>6} "
        f"{'coalesced':>9} {'wait s':>8} {'batches':>8} {'misses':>7}"
    ]
    for namespace in sorted(stats):
        s = stats[namespace]
        label = namespace if len(namespace) <= 44 else namespace[:41] + "..."
        lines.append(
            f"  {label:<44} {s.memory_hit_rate:>6.1%} {s.hit_rate:>6.1%} "
            f"{s.coalesced_hits:>9} {s.coalesce_wait_seconds:>8.3f} "
            f"{s.batch_queries:>8} {s.misses:>7}"
        )
    return "\n".join(lines)


def _cmd_stream(args: argparse.Namespace) -> int:
    from .builder import FacetPipelineBuilder
    from .corpus import build_corpus
    from .incremental import StreamSupervisor, make_batch_files

    config = _config(args)
    if args.make_batches is not None:
        corpus = build_corpus(args.dataset, config)
        paths = make_batch_files(args.input, corpus.documents, args.make_batches)
        print(f"wrote {len(paths)} batch files to {args.input}")
    supervisor = StreamSupervisor(
        FacetPipelineBuilder(config).build(),
        args.run_dir,
        checkpoint_every=args.checkpoint_every,
        resume=not args.no_resume,
    )
    report = supervisor.run(args.input)
    extractor = supervisor.extractor
    print(report.format_summary())
    print(
        f"corpus: {extractor.document_count} documents, "
        f"{len(extractor.facet_terms)} facet terms, "
        f"{len(extractor.hierarchies)} facets"
    )
    for candidate in extractor.facet_terms[: args.top]:
        print(
            f"{candidate.term:<32} df {candidate.df_original:>5} -> "
            f"{candidate.df_contextualized:>5}  score {candidate.score:10.1f}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability import load_trace, render_spans

    try:
        roots = load_trace(args.path)
    except (OSError, ValueError) as exc:
        log.error("trace.unreadable", path=args.path, error=str(exc))
        print(f"cannot read trace: {args.path}: {exc}", file=sys.stderr)
        return 1
    if not roots:
        print(f"empty trace: {args.path}", file=sys.stderr)
        return 1
    print(render_spans(roots, max_children=args.max_children))
    return 0


def _cmd_browse(args: argparse.Namespace) -> int:
    from .builder import FacetPipelineBuilder
    from .corpus import build_snyt

    config = _config(args)
    corpus = build_snyt(config)
    from .core.interface import FacetedInterface

    result = FacetPipelineBuilder(config).build().run(corpus.documents)
    interface = FacetedInterface.from_result(result)
    print("top-level facets:")
    for entry in interface.top_level_counts()[:10]:
        print(f"  {entry.term:<30} {entry.count:>5} docs")
    branching = [f for f in interface.facets if f.size >= 3]
    if branching:
        facet = branching[0]
        print(f"\ndrill-down into {facet.name!r}:")
        for child in interface.children(facet.name)[:6]:
            print(f"  {facet.name} > {child.term:<24} {child.count:>5} docs")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .serving import FacetIndex

    if args.index_command == "build":
        from .builder import FacetPipelineBuilder
        from .corpus import build_corpus

        config = _config(args)
        corpus = build_corpus(args.dataset, config)
        log.info(
            "index.build_start", dataset=corpus.name, documents=len(corpus)
        )
        result = FacetPipelineBuilder(config).build().run(corpus.documents)
        with FacetIndex.build(result, path=args.output) as built:
            print(
                f"wrote {args.output}: {built.document_count} documents, "
                f"{built.facet_count} facets, {built.node_count} nodes"
            )
            print(f"checksum {built.checksum}")
        return 0

    with FacetIndex.open(args.path) as index:
        for key, value in sorted(index.manifest.items()):
            print(f"{key:<20} {value}")
        if args.verify:
            if not index.verify():
                print("checksum mismatch: artifact is corrupt", file=sys.stderr)
                return 1
            print("checksums verified")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from .api import serve
    from .config import ServingConfig

    overrides = {
        name: value
        for name, value in (
            ("host", args.host),
            ("port", args.port),
            ("default_limit", args.limit),
            ("max_limit", args.max_limit),
            ("time_budget_seconds", args.time_budget),
        )
        if value is not None
    }
    config = dataclasses.replace(ServingConfig(), **overrides)
    serve(args.path, config=config)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(log_format=args.log_format, level=args.log_level)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # Bad settings are usage errors (exit 2, as argparse does); any
        # other project error (a missing artifact, ...) is a failed run.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "extract":
        return _cmd_extract(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "browse":
        return _cmd_browse(args)
    if args.command == "index":
        return _cmd_index(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        from .devtools.cli import run_lint

        return run_lint(args)
    if args.command == "report":
        from .harness.report import write_report

        path = write_report(args.results, args.output)
        print(f"wrote {path}")
        return 0
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    raise SystemExit(main())
