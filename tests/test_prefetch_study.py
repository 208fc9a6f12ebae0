"""The prefetch study's stored exact-unit snapshots (``prefetch-exact``).

A warm run compares every equivalence cell with its stored snapshot
instead of re-running :class:`PrefetchingFetchUnit`.  These tests pin the
rules that keep that safe: a source edit re-runs the oracle, a snapshot
that disagrees with the live timeline is re-run and rewritten, and a
timeline regression is reported even when a snapshot exists.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import artifacts
from repro.core.study import ProgramStudy
from repro.experiments.prefetch_study import (
    EXACT_KIND,
    _policy_config,
    run_prefetch_study,
)
from repro.prefetch import PrefetchingFetchUnit

PROGRAM = "lloop01"
CACHE_BYTES = 1024


def _run():
    return run_prefetch_study(
        programs=(PROGRAM,),
        cache_bytes=CACHE_BYTES,
        clb_sizes=(16,),
        depths=(4,),
        sweep_program=PROGRAM,
    )


@pytest.fixture(scope="module")
def cold_result(tmp_path_factory):
    """One cold run on a private cache; later runs in this module are warm."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path_factory.mktemp("exact")))
        artifacts.clear()
        yield _run()
    artifacts.clear()


@pytest.fixture
def fetch_calls(monkeypatch):
    """Counts the addresses :meth:`PrefetchingFetchUnit.fetch_stream`
    walks (one per exact access)."""
    calls = [0]
    fetch_stream = PrefetchingFetchUnit.fetch_stream

    def counting_fetch_stream(self, addresses):
        calls[0] += len(addresses)
        return fetch_stream(self, addresses)

    monkeypatch.setattr(PrefetchingFetchUnit, "fetch_stream", counting_fetch_stream)
    return calls


def _trace_length() -> int:
    return len(artifacts.get_study(PROGRAM).execution.trace.addresses)


def _snapshot_key(policy: str) -> tuple:
    study = artifacts.get_study(PROGRAM)
    return study.prefetch_key(_policy_config(CACHE_BYTES, "sc_dram", policy))


def test_warm_run_skips_the_exact_unit(cold_result, fetch_calls):
    assert _run() == cold_result
    assert fetch_calls[0] == 0


def test_source_edit_reruns_the_exact_unit(cold_result, fetch_calls, edit_source):
    edit_source("prefetch/engine.py")
    assert _run() == cold_result
    assert fetch_calls[0] == 3 * _trace_length()


def test_corrupt_snapshot_is_rerun_and_rewritten(cold_result, fetch_calls):
    cache = artifacts.get_cache()
    key = _snapshot_key("nextline")
    found, snapshot = cache.load(EXACT_KIND, *key)
    assert found
    corrupt = dataclasses.replace(snapshot, useful=snapshot.useful + 1)
    cache.store(EXACT_KIND, corrupt, *key)

    result = _run()

    assert result.equivalence_diffs == 0
    assert fetch_calls[0] == _trace_length()
    assert cache.load(EXACT_KIND, *key) == (True, snapshot)


def test_timeline_regression_differs_despite_snapshot(
    cold_result, fetch_calls, monkeypatch
):
    assert artifacts.get_cache().load(EXACT_KIND, *_snapshot_key("demand"))[0]
    prefetch_replay = ProgramStudy.prefetch_replay

    def one_stall_more(self, config):
        replay = prefetch_replay(self, config)
        if config.fetch_policy != "demand":
            return replay
        return dataclasses.replace(
            replay, fetch_stall_cycles=replay.fetch_stall_cycles + 1
        )

    monkeypatch.setattr(ProgramStudy, "prefetch_replay", one_stall_more)
    result = _run()

    assert "Exact-vs-timeline equivalence: 1 of 3 DIFFER." in result.render()
    assert fetch_calls[0] == _trace_length()
