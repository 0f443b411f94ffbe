"""Tests for the persistent SQLite spec-outcome store (repro.synth.store):
round-trips, corruption, schema versions, invalidation, LRU compaction, the
multi-process writer contract and the ``store_tool`` CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.synth import SynthConfig, SynthesisSession
from repro.synth.store import STORE_VERSION, SpecOutcomeStore

BACKENDS = ["sqlite"]


def _path(tmp_path, backend: str):
    return str(tmp_path / "outcomes.sqlite")


def _entry(truth=True):
    return {"v": STORE_VERSION, "kind": "guard", "truth": truth}


# ---------------------------------------------------------------------------
# Opening
# ---------------------------------------------------------------------------


def test_open_passes_through_instances_and_none(tmp_path):
    assert SpecOutcomeStore.open(None) is None
    store = SpecOutcomeStore(str(tmp_path / "a.sqlite"))
    assert SpecOutcomeStore.open(store) is store
    store.close()


# ---------------------------------------------------------------------------
# The shared suite: round-trip, corruption, schema version, invalidation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_round_trip_across_sessions(tmp_path, backend):
    path = _path(tmp_path, backend)
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path) as first_session:
        first = first_session.run("S4")
    assert first.success
    assert os.path.exists(path)

    with SynthesisSession(config, store=path) as second_session:
        assert second_session.store.stats.loaded > 0
        second = second_session.run("S4")
    assert second.success
    assert second.program == first.program
    assert second.stats.store_hits >= 1
    assert second.stats.reset_replays == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_corrupted_file_is_ignored(tmp_path, backend):
    path = _path(tmp_path, backend)
    with open(path, "wb") as fh:
        fh.write(b"{not json! and definitely not sqlite\xff\x00")
    store = SpecOutcomeStore(path)
    assert store.stats.corrupt_file
    assert len(store) == 0
    # The store stays usable: a run against it persists fresh outcomes.
    with SynthesisSession(SynthConfig(timeout_s=60), store=store) as session:
        result = session.run("S1")
    assert result.success
    reopened = SpecOutcomeStore(path)
    assert not reopened.stats.corrupt_file
    assert len(reopened) > 0
    reopened.close()


def test_unreadable_file_is_moved_aside_not_deleted(tmp_path):
    """A file SQLite cannot open (here a JSON store document from an older
    release) is kept intact at ``<path>.corrupt``; the store starts empty."""

    path = str(tmp_path / "outcomes.json")
    document = json.dumps({"version": STORE_VERSION, "entries": {"k": _entry()}})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    store = SpecOutcomeStore(path)
    assert store.stats.corrupt_file
    assert len(store) == 0
    store.raw_put("fresh", _entry())
    store.close()
    with open(path + ".corrupt", encoding="utf-8") as fh:
        assert fh.read() == document
    reopened = SpecOutcomeStore(path)
    assert not reopened.stats.corrupt_file
    assert dict(reopened.raw_entries()) == {"fresh": _entry()}
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_wrong_schema_version_is_dropped_wholesale(tmp_path, backend):
    path = _path(tmp_path, backend)
    store = SpecOutcomeStore(path)
    store.raw_put("k", _entry())
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'version'")
    conn.close()
    store = SpecOutcomeStore(path)
    assert store.stats.corrupt_file
    assert len(store) == 0
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_entries_are_dropped_at_load(tmp_path, backend):
    path = _path(tmp_path, backend)
    store = SpecOutcomeStore(path)
    store.raw_put("good", _entry())
    store.flush()
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "INSERT INTO entries (key, kind, v, payload, last_hit)"
            " VALUES ('bad-version', 'spec', 999, '{}', 99)"
        )
        conn.execute(
            "INSERT INTO entries (key, kind, v, payload, last_hit)"
            " VALUES ('bad-kind', 'mystery', ?, '{}', 99)",
            (STORE_VERSION,),
        )
    conn.close()
    store = SpecOutcomeStore(path)
    assert store.stats.loaded == 1
    assert store.stats.stale_dropped == 2
    assert dict(store.raw_entries()) == {"good": _entry()}
    store.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_invalidate_caches_wipes_attached_store(tmp_path, backend):
    path = _path(tmp_path, backend)
    with SynthesisSession(SynthConfig(timeout_s=60), store=path) as session:
        session.run("S1")
        assert len(session.store) > 0
        session.problem_for("S1").invalidate_caches()
        assert len(session.store) == 0
    reopened = SpecOutcomeStore(path)
    assert len(reopened) == 0
    reopened.close()


# ---------------------------------------------------------------------------
# Compaction (LRU on last-hit order)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_compact_keeps_most_recently_hit(tmp_path, backend):
    path = _path(tmp_path, backend)
    store = SpecOutcomeStore(path)
    for i in range(5):
        store.raw_put(f"k{i}", _entry(i % 2 == 0))
    # Touch k0: it becomes the most recently hit entry.
    assert store._raw_get("k0") is not None
    pruned = store.compact(2)
    assert pruned == 3
    assert store.stats.compacted == 3
    kept = {key for key, _ in store.raw_entries()}
    assert kept == {"k4", "k0"}
    store.flush()
    store.close()
    reopened = SpecOutcomeStore(path)
    assert {key for key, _ in reopened.raw_entries()} == {"k4", "k0"}
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_compact_noop_below_bound(tmp_path, backend):
    store = SpecOutcomeStore(_path(tmp_path, backend))
    store.raw_put("k", _entry())
    assert store.compact(10) == 0
    assert len(store) == 1
    store.close()


def test_store_tool_info_and_compact(tmp_path):
    path = _path(tmp_path, "sqlite")
    store = SpecOutcomeStore(path)
    for i in range(4):
        store.raw_put(f"k{i}", _entry())
    store.flush()
    store.close()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    tool = os.path.join(root, "scripts", "store_tool.py")
    info = json.loads(
        subprocess.run(
            [sys.executable, tool, "info", path],
            env=env, capture_output=True, text=True,
        ).stdout
    )
    assert info["entries"] == 4 and info["by_kind"] == {"spec": 0, "guard": 4}
    compacted = json.loads(
        subprocess.run(
            [sys.executable, tool, "compact", path, "--max-entries", "1"],
            env=env, capture_output=True, text=True,
        ).stdout
    )
    assert compacted["pruned"] == 3 and compacted["entries_after"] == 1


# ---------------------------------------------------------------------------
# Concurrency contracts
# ---------------------------------------------------------------------------


def _sqlite_writer(path: str, prefix: str, count: int) -> None:
    store = SpecOutcomeStore(path)
    for i in range(count):
        store.raw_put(f"{prefix}-{i}", {"v": STORE_VERSION, "kind": "guard", "truth": True})
        if i % 3 == 0:
            store.flush()
    store.close()


def test_sqlite_two_processes_lose_no_outcomes(tmp_path):
    """Two worker processes writing the same SQLite store interleave per key."""

    path = str(tmp_path / "shared.sqlite")
    SpecOutcomeStore(path).close()  # create the schema up front
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    writers = [
        context.Process(target=_sqlite_writer, args=(path, prefix, 25))
        for prefix in ("alpha", "beta")
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    store = SpecOutcomeStore(path)
    keys = {key for key, _ in store.raw_entries()}
    assert keys == {f"alpha-{i}" for i in range(25)} | {f"beta-{i}" for i in range(25)}
    store.close()
