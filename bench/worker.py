"""One process of the system benchmark: a trial, a preparation step or a probe.

``bench/run.py`` starts every trial in a fresh interpreter, so each one pays
what a command-line user pays (imports, world, substrates, corpus) and no
cached state leaks from one trial into the next::

    python3 bench/worker.py SPEC.json

``SPEC.json`` names a role and its inputs; the worker writes its result as
JSON to ``spec["result"]``.  ``ready_at`` in every result is the wall clock
(``time.time()``) at which the role's inputs were ready, so the parent can
compute set-up time from the moment it spawned the process.  Traced roles
write the product's spans, plus the benchmark's own ``bench:*`` spans around
each public call, to ``spec["trace"]`` as JSONL.

Roles
-----
``extract``      one ``FacetExtractor.run`` over a corpus slice (local or
                 behind simulated remote latency).
``stream-prep``  ingest the archive with ``IncrementalExtractor.append`` and
                 leave its checkpoint behind.
``stream``       ``IncrementalExtractor.restore`` from that checkpoint, then
                 append the feed batch by batch.
``serve-prep``   extract, compile the ``FacetIndex`` artifact, and write the
                 seeded request mix with the expected bytes of sampled
                 responses (traced in the traced run).
``serve-layers`` replay the request mix in process through the payload
                 builders, ``canonical_json`` and ``AsgiClient`` over
                 ``FacetApp`` (untraced, then traced).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Every CHECK_EVERY-th request of the mix has its expected body recorded
#: (and the load generator keeps the body of the same requests).
CHECK_EVERY = 50

#: One block of the serve-mixed request sequence, as requests per route:
#: 15% facet roots, 25% children, 25% one-facet drilldowns, 10% two-facet
#: drilldowns (dice), 10% keyword searches, 15% document fetches.
ROUTE_BLOCK = (
    ("facets", 3),
    ("children", 5),
    ("drilldown", 5),
    ("dice", 2),
    ("search", 2),
    ("document", 3),
)

#: Rows per drilldown response (the service's default limit).
DRILLDOWN_LIMIT = 10


def _peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(obs, name: str, **tags):
    """A benchmark span on the product tracer, or nothing when untraced."""
    if obs is None:
        return contextlib.nullcontext()
    return obs.tracer.span(name, **tags)


def _observability(spec: dict):
    if not spec.get("traced"):
        return None
    from repro.observability import Observability

    return Observability.enabled()


def _write_trace(spec: dict, obs) -> None:
    if obs is not None:
        obs.tracer.write_jsonl(spec["trace"])


def _setup(spec: dict, obs, workers: int = 1):
    """Configuration, builder and the seeded corpus.

    The world and the resources built on it (the simulated Wikipedia,
    WordNet and web) always come from the default configuration seed, like
    a fixed knowledge base; the benchmark seed only generates the documents
    (and, in ``make_requests``, the request mix).  A seed therefore changes
    the input, not the system, and runs with different seeds measure the
    same system on comparable inputs.
    """
    from repro.builder import FacetPipelineBuilder
    from repro.config import ParallelConfig, ReproConfig
    from repro.corpus import build_corpus

    config = ReproConfig(scale=spec["scale"], parallel=ParallelConfig(workers=workers))
    builder = FacetPipelineBuilder(config).with_observability(obs)
    inputs = ReproConfig(seed=spec["seed"], scale=spec["scale"])
    documents = build_corpus(spec["dataset"], inputs, world=builder.world).documents
    return config, builder, documents


def result_digest(facet_terms, hierarchies) -> str:
    """sha256 of the facet terms (IEEE-754-hex scores) and hierarchies."""
    from repro.core.export import to_dict
    from repro.incremental import canonical_json

    payload = {
        "facet_terms": [
            [c.term, c.df_original, c.df_contextualized, c.score.hex()]
            for c in facet_terms
        ],
        "hierarchies": to_dict(hierarchies, include_docs=True),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _resource_counts(stats: list, round_trips: int, latency_s: float) -> dict:
    """Per-run resource counters summed over the pipeline's resources."""
    queries = sum(s.queries for s in stats)
    hits = sum(s.hits for s in stats)
    return {
        "queries": queries,
        "hits": hits,
        "coalesced_hits": sum(s.coalesced_hits for s in stats),
        "coalesce_wait_s": sum(s.coalesce_wait_seconds for s in stats),
        "round_trips": round_trips,
        "wait_s": round_trips * latency_s,
    }


# -- extract ----------------------------------------------------------------------


def _remote_pipeline(pipeline, spec: dict, fingerprint: str, obs):
    """The built pipeline with every resource behind simulated latency.

    Every member of the builder's composite is wrapped in
    ``SimulatedLatencyResource`` and the wrappers are unioned again, so the
    pipeline is the one ``builder.build()`` makes, one remote hop away.
    """
    from repro.config import ParallelConfig
    from repro.core.pipeline import FacetExtractor
    from repro.resources.composite import CompositeResource
    from repro.resources.resilience import SimulatedLatencyResource

    parallel = ParallelConfig(workers=spec["workers"], cache_path=spec["cache_path"])
    (composite,) = pipeline.resources
    remote = [
        SimulatedLatencyResource(member, spec["latency_s"])
        for member in composite.members
    ]
    for member in remote:
        member.resize_memory_cache(parallel.memory_cache_size)
    wired = FacetExtractor(
        extractors=pipeline.extractors,
        resources=[CompositeResource(remote)],
        top_k=pipeline.top_k,
        statistic=pipeline.statistic,
        require_both_shifts=pipeline.require_both_shifts,
        subsumption_threshold=pipeline.subsumption_threshold,
        build_hierarchies=pipeline.build_hierarchies,
        edge_validator=pipeline.edge_validator,
        parallel=parallel,
        cache_fingerprint=fingerprint,
        observability=obs,
    )
    return wired, remote


def role_extract(spec: dict) -> dict:
    obs = _observability(spec)
    config, builder, documents = _setup(spec, obs, workers=spec["workers"])
    documents = documents[: spec["documents"]]
    pipeline = builder.build()
    remote: list = []
    if spec["latency_s"]:
        pipeline, remote = _remote_pipeline(pipeline, spec, config.cache_fingerprint(), obs)
    ready_at = time.time()
    if spec.get("setup_only"):
        return {"ready_at": ready_at}
    with _span(obs, "bench:run", documents=len(documents)):
        start = time.perf_counter()
        result = pipeline.run(documents)
        run_s = time.perf_counter() - start
    peak = _peak_rss_mb()
    cache = pipeline.resource_cache
    out = {
        "ready_at": ready_at,
        "run_s": run_s,
        "documents": len(documents),
        "peak_rss_mb": peak,
        "digest": result_digest(result.facet_terms, result.hierarchies),
        "resources": _resource_counts(
            list(result.resource_stats.values()),
            sum(member.simulated_calls for member in remote),
            spec["latency_s"],
        ),
        "resource_cache": {
            "batch_reads": cache.batch_reads if cache is not None else 0,
            "batch_writes": cache.batch_writes if cache is not None else 0,
        },
    }
    if cache is not None:
        cache.close()
    _write_trace(spec, obs)
    return out


# -- stream -----------------------------------------------------------------------


def role_stream_prep(spec: dict) -> dict:
    from repro.incremental import CheckpointStore, IncrementalExtractor

    _config, builder, documents = _setup(spec, None)
    extractor = IncrementalExtractor(
        builder.build(),
        checkpoint=CheckpointStore(spec["checkpoint_dir"]),
        checkpoint_every=1,
    )
    extractor.append(documents[: spec["base"]], batch_id="archive")
    return {"digest": result_digest(extractor.facet_terms, extractor.hierarchies)}


def _feed(spec: dict, documents: list) -> list[list]:
    base, size = spec["base"], spec["batch"]
    return [
        documents[base + i * size : base + (i + 1) * size]
        for i in range(spec["batches"])
    ]


def _time_state_layers(extractor, spec: dict, obs) -> dict:
    """Time state serialization and the checkpoint store on their own.

    The snapshot goes to a side directory so the trial's own checkpoint
    history is untouched.
    """
    from repro.incremental import CheckpointStore, IncrementalState

    timings: dict[str, float] = {}

    def timed(name: str, call):
        with _span(obs, f"bench:{name}"):
            start = time.perf_counter()
            value = call()
            timings[name] = time.perf_counter() - start
        return value

    payload = timed("to_payload", extractor.state.to_payload)
    side = CheckpointStore(spec["side_dir"])
    path = timed("save", lambda: side.save(payload, len(extractor.batches_done)))
    timings["bytes"] = path.stat().st_size
    _sequence, loaded = timed("load_latest", side.load_latest)
    timed("from_payload", lambda: IncrementalState.from_payload(loaded))
    return timings


def role_stream(spec: dict) -> dict:
    from repro.incremental import CheckpointStore, IncrementalExtractor

    obs = _observability(spec)
    _config, builder, documents = _setup(spec, obs)
    store = CheckpointStore(spec["checkpoint_dir"])
    pipeline = builder.build()
    with _span(obs, "bench:restore"):
        start = time.perf_counter()
        extractor = IncrementalExtractor.restore(pipeline, store, checkpoint_every=1)
        restore_s = time.perf_counter() - start
    ready_at = time.time()
    if spec.get("setup_only"):
        return {"ready_at": ready_at, "restore_s": restore_s}
    restored_digest = result_digest(extractor.facet_terms, extractor.hierarchies)

    def counts() -> dict:
        """Resource and pair-cache counters so far (restore included)."""
        stats = [resource.cache_stats for resource in pipeline.resources]
        totals = _resource_counts(stats, 0, 0.0)
        if obs is not None:
            for key in ("pair_cache_hits", "pair_cache_misses"):
                totals[key] = obs.metrics.counters.get(f"incremental.{key}", 0.0)
        return totals

    before = counts()
    feed = _feed(spec, documents)
    commits: list[float] = []
    dirty: list[int] = []
    touched: list[int] = []
    for index, batch in enumerate(feed):
        with _span(obs, "bench:append", batch=index):
            start = time.perf_counter()
            report = extractor.append(batch, batch_id=f"feed-{index:03d}")
            commits.append(time.perf_counter() - start)
        dirty.append(report.dirty_documents)
        touched.append(report.touched_terms)
    peak = _peak_rss_mb()
    appended = {key: value - before[key] for key, value in counts().items()}
    out = {
        "ready_at": ready_at,
        "restore_s": restore_s,
        "commit_s": commits,
        "documents": sum(len(batch) for batch in feed),
        "peak_rss_mb": peak,
        "restored_digest": restored_digest,
        "digest": result_digest(extractor.facet_terms, extractor.hierarchies),
        "dirty_documents": dirty,
        "touched_terms": touched,
        "resources": appended,
    }
    if obs is not None:
        out["state"] = _time_state_layers(extractor, spec, obs)
    _write_trace(spec, obs)
    return out


# -- serve ------------------------------------------------------------------------


def _node_terms(interface) -> list[tuple[str, bool, frozenset]]:
    """Every facet node as ``(term, has_children, doc_ids)``, pre-order."""
    nodes = []
    for facet in interface.facets:
        for node in facet.root.walk():
            nodes.append((node.term, bool(node.children), frozenset(node.doc_ids)))
    return nodes


def _cycle(rng: random.Random, items: list):
    """Endless passes over ``items``, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def make_requests(interface, seed: int, count: int) -> list[dict]:
    """The seeded serve-mixed request sequence.

    Requests come in shuffled blocks of ``ROUTE_BLOCK``, so every run has
    exactly the same route shares, and each route walks its targets (facet
    nodes, documents, title words) in seeded passes that cover all of them
    before repeating any.  Two runs with different seeds then differ in
    order and documents, not in how many expensive requests they make.
    """
    from urllib.parse import quote, urlencode

    rng = random.Random(f"{seed}:requests")
    nodes = [n for n in _node_terms(interface) if "/" not in n[0] and "%" not in n[0]]
    parents = [n for n in nodes if n[1]] or nodes
    collection = interface.dice([])
    documents = sorted(doc.doc_id for doc in collection)
    terms_of: dict[str, set[str]] = {}
    for term, _has_children, doc_ids in nodes:
        for doc_id in doc_ids:
            terms_of.setdefault(doc_id, set()).add(term)
    words = sorted(
        {
            word.lower()
            for doc in collection
            for word in doc.title.split()
            if word.isalpha() and len(word) >= 4
        }
    )
    targets = {
        "children": _cycle(rng, [term for term, _c, _d in parents]),
        "drilldown": _cycle(rng, [term for term, _c, _d in nodes]),
        "dice": _cycle(rng, [d for d in documents if len(terms_of.get(d, ())) >= 2]),
        "search": _cycle(rng, words),
        "document": _cycle(rng, documents),
    }
    block = [route for route, size in ROUTE_BLOCK for _ in range(size)]
    requests: list[dict] = []
    while len(requests) < count:
        rng.shuffle(block)
        for route in block:
            target = next(targets[route]) if route in targets else None
            if route == "facets":
                request = {"path": "/facets"}
            elif route == "children":
                request = {"term": target, "path": f"/facets/{quote(target, safe='')}/children"}
            elif route == "document":
                request = {"doc_id": target, "path": f"/documents/{quote(target, safe='')}"}
            else:
                if route == "drilldown":
                    request = {"terms": [target]}
                elif route == "dice":
                    request = {"terms": rng.sample(sorted(terms_of[target]), 2)}
                else:
                    request = {"terms": [], "q": target}
                query = [("facet", term) for term in request["terms"]]
                if request.get("q"):
                    query.append(("q", request["q"]))
                query.append(("limit", str(DRILLDOWN_LIMIT)))
                request["path"] = "/drilldown?" + urlencode(query)
            request["route"] = route
            requests.append(request)
    return requests[:count]


def build_payload(browser, request: dict) -> dict:
    """The payload the service builds for ``request`` over ``browser``."""
    from repro.serving import renderers

    route = request["route"]
    if route == "facets":
        return renderers.facets_payload(browser)
    if route == "children":
        return renderers.children_payload(browser, request["term"])
    if route == "document":
        return renderers.document_payload(browser, request["doc_id"])
    return renderers.drilldown_payload(
        browser,
        terms=list(request["terms"]),
        query=request.get("q"),
        limit=DRILLDOWN_LIMIT,
    )


def role_serve_prep(spec: dict) -> dict:
    from repro.core.interface import FacetedInterface
    from repro.serving import FacetIndex
    from repro.serving.renderers import canonical_json

    obs = _observability(spec)
    _config, builder, documents = _setup(spec, obs)
    with _span(obs, "bench:run", documents=spec["documents"]):
        result = builder.build().run(documents[: spec["documents"]])
    interface = FacetedInterface.from_result(result)
    artifact = spec["artifact"]
    with _span(obs, "bench:build"):
        start = time.perf_counter()
        with FacetIndex.build(result, path=artifact) as index:
            build_s = time.perf_counter() - start
            checksum = index.checksum
    _write_trace(spec, obs)
    requests = make_requests(interface, spec["seed"], spec["requests"])
    expected = {
        str(i): canonical_json(build_payload(interface, requests[i])).decode("utf-8")
        for i in range(0, len(requests), CHECK_EVERY)
    }
    Path(spec["requests_file"]).write_text(json.dumps(requests), encoding="utf-8")
    return {
        "digest": result_digest(result.facet_terms, result.hierarchies),
        "checksum": checksum,
        "build_s": build_s,
        "artifact_bytes": Path(artifact).stat().st_size,
        "expected": expected,
        "resources": _resource_counts(list(result.resource_stats.values()), 0, 0.0),
    }


def role_serve_layers(spec: dict) -> dict:
    from repro.observability import Observability
    from repro.serving import AsgiClient, FacetApp, FacetIndex
    from repro.serving.renderers import canonical_json

    requests = json.loads(Path(spec["requests_file"]).read_text(encoding="utf-8"))
    requests = requests[: spec["replay"]]
    obs = Observability.enabled()
    with FacetIndex.open(spec["artifact"]) as index:
        for request in requests:  # untimed warm pass: lazy caches, page cache
            canonical_json(build_payload(index, request))
        for request in requests:
            with _span(obs, "bench:payload", route=request["route"]):
                payload = build_payload(index, request)
            with _span(obs, "bench:render", route=request["route"]):
                canonical_json(payload)

        with FacetApp(index) as app:
            client = AsgiClient(app)
            for request in requests:
                client.get(request["path"])
            start = time.perf_counter()
            statuses = [client.get(request["path"]).status for request in requests]
            untraced_s = time.perf_counter() - start
        with FacetApp(index, observability=obs) as app:
            client = AsgiClient(app)
            start = time.perf_counter()
            for request in requests:
                with _span(obs, "bench:asgi", route=request["route"]):
                    statuses.append(client.get(request["path"]).status)
            traced_s = time.perf_counter() - start
    _write_trace(spec, obs)
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "failed": sum(1 for status in statuses if status != 200),
        "attempted": len(statuses),
    }


ROLES = {
    "extract": role_extract,
    "stream-prep": role_stream_prep,
    "stream": role_stream,
    "serve-prep": role_serve_prep,
    "serve-layers": role_serve_layers,
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/worker.py SPEC.json", file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = ROLES[spec["role"]](spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
