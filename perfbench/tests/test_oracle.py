"""The oracle counts wrong, degraded and non-identical answers as failures."""

import dataclasses
import math

import pytest

from repro.service import GraphSession

from perfbench.workloads import IngestDense, Recorder, ServeFresh, SparseGrow


class TinyServe(ServeFresh):
    n, batch, warm, steps, repeats = 8, 12, 12, 2, 1


class TinyGrow(SparseGrow):
    universe, start_ids, final_ids, rung = 10**5, 4, 12, 4
    batch, warm, batches, checkpoint_every = 16, 16, 4, 2


class TinyDense(IngestDense):
    n, batch, warm, batches = 16, 32, 32, 2


def _run(workload, tmp_path, seed=3):
    inputs = workload.inputs(seed)
    rec = Recorder()
    session = workload.round(workload.setup(inputs), inputs, rec, tmp_path)
    workload.finish(session, rec)
    return rec


@pytest.mark.parametrize("workload", [TinyServe(), TinyGrow(), TinyDense()])
def test_honest_answers_pass(workload, tmp_path):
    rec = _run(workload, tmp_path)
    assert rec.failed == 0, rec.failures
    assert rec.attempted > 0


def _flip_connected(outcome):
    return dataclasses.replace(outcome, value=not outcome.value)


def _stretch_past_bound(outcome):
    value = 1.0 if outcome.value == math.inf else outcome.value * 5 + 1
    return dataclasses.replace(outcome, value=value)


def _degrade(outcome):
    return dataclasses.replace(outcome, value=None, ok=False, confidence="degraded")


@pytest.mark.parametrize("kind,corrupt", [
    ("connected", _flip_connected),
    ("spanner-distance", _stretch_past_bound),
    ("cut", _degrade),
])
def test_wrong_or_degraded_answer_is_counted(kind, corrupt, tmp_path, monkeypatch):
    original = GraphSession.query

    def query(self, asked, *args):
        outcome = original(self, asked, *args)
        return corrupt(outcome) if asked == kind else outcome

    monkeypatch.setattr(GraphSession, "query", query)
    rec = _run(TinyServe(), tmp_path)
    assert rec.failed >= TinyServe.steps
    assert rec.attempted > rec.failed


def test_restore_that_differs_is_counted(tmp_path, monkeypatch):
    original = GraphSession.restore.__func__

    def restore(cls, path):
        session = original(cls, path)
        session.rotate_sketches()  # same graph, different sketch state
        return session

    monkeypatch.setattr(GraphSession, "restore", classmethod(restore))
    rec = _run(TinyGrow(), tmp_path)
    pairs = TinyGrow.batches // TinyGrow.checkpoint_every
    assert rec.failed == pairs


def test_exception_is_counted_not_raised(tmp_path, monkeypatch):
    def broken(self, updates):
        raise RuntimeError("ingest down")

    workload = TinyDense()
    inputs = workload.inputs(1)
    session = workload.setup(inputs)
    monkeypatch.setattr(GraphSession, "ingest_batch", broken)
    rec = Recorder()
    workload.round(session, inputs, rec, tmp_path)
    assert rec.failed == rec.attempted == TinyDense.batches
    assert rec.tokens == 0
