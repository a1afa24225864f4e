"""EXP-EFF — Section V-D: per-stage throughput.

Paper account: >= 100 docs/s for local term extraction, the Yahoo web
service at 2-3 s/doc is the bottleneck; expansion with local resources
>= 100 docs/s vs ~1 s/doc for Google; selection takes milliseconds and
hierarchy construction a couple of seconds.

This regenerates the paper's table; it makes no speed claim about this
system.  The system's own end-to-end and per-layer numbers come from
``bench/`` (``python3 bench/run.py --workload extract-snyt`` for the
per-stage split, ``--workload extract-remote`` for batched queries to
remote resources with a SQLite cache).
"""

from repro.corpus.datasets import DatasetName
from repro.corpus import build_corpus
from repro.eval.efficiency import EfficiencyStudy


def test_efficiency(benchmark, config, builder, save_result):
    corpus = build_corpus(DatasetName.SNYT, config)
    sample = corpus.documents[: min(200, len(corpus))]
    study = EfficiencyStudy(config, builder)
    report = benchmark.pedantic(lambda: study.run(sample), rounds=1, iterations=1)
    save_result("efficiency", report.format_summary())

    assert report.extraction_local_docs_per_s > 100
    assert report.extraction_with_yahoo_s_per_doc > 2.0
    assert report.expansion_local_docs_per_s > 100
    assert report.expansion_with_google_s_per_doc >= 1.0
    assert report.selection_s < 2.0
    assert report.hierarchy_s < 5.0
