"""Shared fixtures for the benchmark suite.

All benchmarks share one configuration (honouring ``REPRO_SCALE``) and
one :class:`~repro.builder.FacetPipelineBuilder`, so the simulated
Wikipedia/web/WordNet substrates and the corpus/gold caches are built
once per session.  Every benchmark writes the table/figure it
regenerates to ``benchmarks/results/<name>.txt``; ``save_json`` adds a
machine-readable ``benchmarks/results/<name>.json`` where one is kept.
The system's own performance is measured by ``bench/``, not here.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.builder import FacetPipelineBuilder
from repro.config import ReproConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config() -> ReproConfig:
    """The session configuration (scale via REPRO_SCALE, default 1.0)."""
    return ReproConfig()


@pytest.fixture(scope="session")
def builder(config: ReproConfig) -> FacetPipelineBuilder:
    """Shared pipeline builder (substrates built once)."""
    return FacetPipelineBuilder(config)


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_json():
    """Persist a machine-readable result under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, payload: dict) -> None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        (RESULTS_DIR / f"{name}.json").write_text(text)

    return _save
