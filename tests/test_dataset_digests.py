"""Dataset-digest wall: every benchmarked input graph, pinned by hash.

The experiment graphs are never stored; they are regenerated from
``(name, scale_div, seed)`` on every cold start.  A generator or CSR
construction change that moves a single arc therefore changes every
downstream number silently, unless the generated bytes themselves are
pinned.  This wall pins the SHA-256 of ``offsets`` + ``indices`` for:

* every Table I real-world analogue at ``scale_div=64`` (the fig1-grid
  workload's inputs, at its default seed 0);
* ``rgg_n_2_{10,15,16}_s0`` (15 and 16 are the scale-rgg inputs);
* ``rmat_n_2_12``;
* a few :func:`random_regular` samples, including dense ones whose
  200 pairings all fail and which return the best simple pairing.

A failure names the dataset whose bytes moved.  Regenerate deliberately
(only together with a ``GENERATOR_VERSION`` bump) with::

    PYTHONPATH=src python -m pytest tests/test_dataset_digests.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph.generators import random_regular
from repro.harness import datasets as ds

GOLDEN = Path(__file__).parent / "golden" / "datasets.json"

#: Seed of the benchmark workloads' dataset generation (their default).
WORKLOAD_SEED = 0

#: (n, d, seed) samples of the configuration-model generator.  The
#: first two find a simple pairing; the last three exhaust every retry
#: and return the best pairing found (as the cage13 analogue does).
REGULAR_SAMPLES = [(100, 3, 1), (200, 4, 2), (1000, 18, 2), (20, 15, 4), (30, 24, 5)]


def _cases():
    for name in ds.REAL_WORLD_DATASETS:
        yield f"{name}/div64/seed{WORKLOAD_SEED}", (
            lambda name=name: ds.generate(name, scale_div=64, seed=WORKLOAD_SEED)
        )
    for name in ("rgg_n_2_10_s0", "rgg_n_2_15_s0", "rgg_n_2_16_s0", "rmat_n_2_12"):
        yield f"{name}/seed{WORKLOAD_SEED}", (
            lambda name=name: ds.generate(name, seed=WORKLOAD_SEED)
        )
    for n, d, seed in REGULAR_SAMPLES:
        yield f"random_regular/n{n}/d{d}/seed{seed}", (
            lambda n=n, d=d, seed=seed: random_regular(n, d, rng=seed)
        )


CASES = dict(_cases())


def digest(graph) -> str:
    """SHA-256 of the CSR arrays as little-endian int64 bytes."""
    h = hashlib.sha256()
    for arr in (graph.offsets, graph.indices):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden(regen_golden):
    if regen_golden:
        doc = {key: digest(make()) for key, make in CASES.items()}
        GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_dataset_bytes_pinned(key, golden):
    assert digest(CASES[key]()) == golden[key], (
        f"{key}: generated graph differs from the pinned bytes"
    )
