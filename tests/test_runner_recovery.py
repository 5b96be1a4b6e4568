"""Grid-runner recovery paths that need a dedicated setup: failed
dataset loads (settled, logged and counted like every other failed
repetition) and the pool's parent-side backstop deadline for a worker
that hangs where its own SIGALRM cannot reach it."""

import io
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import log as runlog
from repro import metrics
from repro._rng import DEFAULT_SEED
from repro.harness import datasets as ds
from repro.harness import faults
from repro.harness.journal import GridJournal
from repro.harness.runner import run_grid

SMALL_DIV = 512
HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _sig(cells):
    """The bit-identity fields of a grid (timing floats excluded)."""
    return [
        (c.dataset, c.algorithm, c.colors, c.sim_ms, c.iterations, c.valid)
        for c in cells
    ]


def _events(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def _first_claim(path) -> bool:
    """True exactly once across all processes for one ``path``."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


@pytest.fixture(autouse=True)
def _no_env_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


@pytest.mark.parametrize(
    "jobs",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                not HAVE_FORK, reason="fork start method unavailable"
            ),
        ),
    ],
)
def test_dataset_load_failure_is_settled(jobs, tmp_path, monkeypatch):
    """A dataset that cannot load fails each of its repetitions through
    the same settle step as any other failure: one ``rep_failed`` event
    and one ``repro_rep_failures_total`` count per repetition, no retry
    (the failure is deterministic), and nothing journaled."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    repetitions = 2
    names = ["no_such_dataset", "ecology2"]
    stream = io.StringIO()
    with metrics.activate() as reg, runlog.activate(stream):
        cells = run_grid(
            names,
            ["cpu.greedy"],
            scale_div=SMALL_DIV,
            repetitions=repetitions,
            jobs=jobs,
            retries=2,
            journal=True,
        )
    bad, good = cells
    assert bad.status == "failed"
    assert bad.failed_repetitions == repetitions
    assert bad.error.startswith("DatasetError: unknown dataset")
    assert good.ok
    labels = dict(dataset="no_such_dataset", algorithm="cpu.greedy")
    assert reg.get("repro_rep_failures_total", **labels) == repetitions
    assert reg.get("repro_retries_total", **labels) == 0.0
    events = _events(stream)
    failed = [
        e
        for e in events
        if e["event"] == "rep_failed" and e["dataset"] == "no_such_dataset"
    ]
    assert sorted(e["rep"] for e in failed) == list(range(repetitions))
    for e in failed:
        assert e["status"] == "failed"
        assert e["attempts"] == 0
        assert "DatasetError" in e["error"]
    assert not [e for e in events if e["event"] == "rep_retry"]
    journaled = GridJournal.for_config(
        datasets=names,
        algorithms=["cpu.greedy"],
        scale_div=SMALL_DIV,
        seed=DEFAULT_SEED,
        repetitions=repetitions,
    ).load()
    assert sorted(journaled) == [
        ("ecology2", "cpu.greedy", rep) for rep in range(repetitions)
    ]


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_backstop_kills_hung_worker(tmp_path):
    """A worker that blocks SIGALRM and sleeps cannot time itself out;
    the parent's ``1.5 × timeout + 5 s`` deadline must kill the pool,
    charge the hung repetition a timeout, retry it to success, and
    resubmit an innocent in-flight repetition free of charge."""
    grid = dict(scale_div=SMALL_DIV, repetitions=6, journal=False)
    ref = run_grid(["ecology2"], ["cpu.greedy"], **grid)
    hung_rep, innocent_rep = 0, 5

    def hook(site):
        if site.rep in (hung_rep, innocent_rep):
            if _first_claim(str(tmp_path / f"rep{site.rep}")):
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
                time.sleep(30)  # killed with the pool long before this ends
        else:
            # Space out the submissions, so the innocent repetition
            # starts well after the hung one and is still inside its
            # own deadline when the hung one's expires.
            time.sleep(0.1)

    stream = io.StringIO()
    with faults.injected(hook), runlog.activate(stream):
        cells = run_grid(
            ["ecology2"],
            ["cpu.greedy"],
            jobs=2,
            timeout=0.2,
            retries=2,
            **grid,
        )
    assert all(c.ok for c in cells)
    assert _sig(cells) == _sig(ref)
    events = _events(stream)
    assert [e["event"] for e in events].count("pool_reseed") == 1
    retries = [e for e in events if e["event"] == "rep_retry"]
    hung = [e for e in retries if e["rep"] == hung_rep]
    assert len(hung) == 1
    assert hung[0]["attempt"] == 1
    assert hung[0]["error"].startswith("RepetitionTimeout:")
    assert "had to be killed" in hung[0]["error"]
    # The innocent repetition did start its hang before the kill, yet
    # its only completion carries no retry.
    assert (tmp_path / f"rep{innocent_rep}").exists()
    assert not [e for e in retries if e["rep"] == innocent_rep]
    ok_reps = [e["rep"] for e in events if e["event"] == "rep_ok"]
    assert sorted(ok_reps) == list(range(6))


_JOBS = [
    1,
    pytest.param(
        2,
        marks=pytest.mark.skipif(
            not HAVE_FORK, reason="fork start method unavailable"
        ),
    ),
]


@pytest.mark.parametrize("jobs", _JOBS)
def test_failing_dataset_is_not_loaded_again_after_the_grid(
    jobs, tmp_path, monkeypatch
):
    """The cells take the graph's size from their repetitions, so a
    dataset that cannot load is tried once per repetition (jobs=1), or
    once by the pool's pre-warm, which settles its repetitions without
    submitting them (jobs=2) — never once more after the grid."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    calls = []
    original = ds.load

    def counted(name, *args, **kwargs):
        if name == "no_such_dataset":
            calls.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(ds, "load", counted)
    repetitions = 3
    bad, good = run_grid(
        ["no_such_dataset", "ecology2"],
        ["cpu.greedy"],
        scale_div=SMALL_DIV,
        repetitions=repetitions,
        jobs=jobs,
        journal=False,
    )
    assert len(calls) == (repetitions if jobs == 1 else 1)
    assert (bad.status, bad.num_vertices, bad.num_edges) == ("failed", 0, 0)
    assert good.ok and good.num_vertices > 0


@pytest.mark.parametrize("jobs", _JOBS)
def test_cell_sizes_are_the_graph_sizes(jobs, tmp_path, monkeypatch):
    """Vertices/Edges of every cell equal the loaded graph's, for a
    healthy grid, a replayed one, and a cell whose repetitions all
    failed after the graph loaded."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    names = ["ecology2", "offshore", "G3_circuit"]
    grid = dict(scale_div=SMALL_DIV, repetitions=2, jobs=jobs)
    expected = {
        name: (g.num_vertices, g.num_edges)
        for name in names
        for g in [ds.load(name, scale_div=SMALL_DIV, seed=DEFAULT_SEED)]
    }

    def sizes(cells):
        return [(c.num_vertices, c.num_edges) for c in cells]

    want = [expected[name] for name in names for _algo in (1, 2)]
    algos = ["cpu.greedy", "gunrock.hash"]
    assert sizes(run_grid(names, algos, journal=True, **grid)) == want
    assert sizes(run_grid(names, algos, resume=True, **grid)) == want
    # A raising repetition reports its graph's size itself; one lost
    # with its killed worker (jobs=2 only) takes it from the pre-warm.
    clauses = ["raise@offshore:gunrock.hash:*:kind=fatal"]
    if jobs > 1:
        clauses.append("kill@G3_circuit:cpu.greedy:*")
    monkeypatch.setenv(faults.ENV_VAR, ";".join(clauses))
    cells = run_grid(names, algos, journal=False, retries=2, **grid)
    assert [c.ok for c in cells] == [True, True, True, False, jobs == 1, True]
    assert sizes(cells) == want
