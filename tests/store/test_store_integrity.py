"""Durability mechanics of the verdict store: journal, projection, keys.

The journal is the source of truth (append-only JSONL, flock'd appends,
torn-tail repair); the SQLite projection is a disposable read-optimised
index rebuilt from the journal whenever it is missing, stale, or corrupt.
These tests drive each failure mode directly.
"""

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.store import (
    StoredRun,
    VerdictJournal,
    VerdictStore,
    candidate_key,
    flags_signature,
    open_store,
    system_signature,
)
from repro.store.projection import SqliteProjection
from repro.store.store import JOURNAL_NAME, PROJECTION_NAME
from repro.core import SynthesisConfig, SynthesisEngine
from repro.protocols.catalog import build_skeleton

SYS = "a" * 64
FLAGS = "b" * 64


def stored(verdict="success", **kwargs):
    return StoredRun(verdict=verdict, stats={"states_visited": 7}, **kwargs)


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = VerdictJournal(str(tmp_path / "j.jsonl"))
        _start, offset = journal.append({"key": "k1", "verdict": "success"})
        journal.append({"key": "k2", "verdict": "failure"})
        records = list(journal.replay())
        assert [r["key"] for _, r in records] == ["k1", "k2"]
        # Offsets are resumable: replaying from the first record's end
        # yields only the second.
        assert [r["key"] for _, r in journal.replay(offset)] == ["k2"]
        journal.close()

    def test_torn_tail_is_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = VerdictJournal(str(path))
        journal.append({"key": "k1"})
        journal.close()
        # A writer killed mid-append leaves a partial line with no newline.
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k2", "verd')
        # Replay does not consume the torn tail (it may still be completed).
        journal = VerdictJournal(str(path))
        assert [r["key"] for _, r in journal.replay()] == ["k1"]
        # The next locked append terminates the torn line, confining the
        # garbage to one skippable line; the new record is intact.
        journal.append({"key": "k3"})
        assert [r["key"] for _, r in journal.replay()] == ["k1", "k3"]
        journal.close()

    def test_append_reports_its_own_start_past_a_repair(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = VerdictJournal(str(path))
        start, end = journal.append({"key": "k1"})
        assert (start, end) == (0, journal.size())
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k2", "verd')
        torn_size = journal.size()
        # The repair's newline comes first, so the record starts after it.
        start, end = journal.append({"key": "k3"})
        assert start == torn_size + 1
        assert end == journal.size()
        journal.close()

    def test_unparseable_complete_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"key": "k1"}\nnot json at all\n{"key": "k2"}\n')
        journal = VerdictJournal(str(path))
        assert [r["key"] for _, r in journal.replay()] == ["k1", "k2"]
        journal.close()


class TestProjectionRecovery:
    def test_projection_rebuilds_from_journal_when_deleted(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(SYS, FLAGS, (("h", 1),), stored())
        store.close()
        os.unlink(tmp_path / PROJECTION_NAME)
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(SYS, FLAGS, (("h", 1),))
        assert hit is not None and hit.verdict == "success"
        assert len(reopened) == 1
        reopened.close()

    def test_corrupt_projection_is_discarded_and_rebuilt(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(SYS, FLAGS, (("h", 0),), stored("failure"))
        store.close()
        (tmp_path / PROJECTION_NAME).write_bytes(b"this is not sqlite")
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(SYS, FLAGS, (("h", 0),))
        assert hit is not None and hit.verdict == "failure"
        reopened.close()

    # The second input is a record written by an older release, which
    # still carried a ``cut_holes`` field; loading must ignore it.
    @pytest.mark.parametrize("legacy_fields", [{}, {"cut_holes": [["h", 2]]}])
    def test_journal_is_the_source_of_truth(self, tmp_path, legacy_fields):
        """Records appended behind the projection's back (another process)
        are visible after the size check triggers a catch-up."""
        store = VerdictStore(str(tmp_path))
        store.record(SYS, FLAGS, (("h", 0),), stored())
        # Simulate a second writer: raw append to the same journal file.
        key = candidate_key(SYS, FLAGS, (("h", 1),))
        line = json.dumps(
            {"key": key, **stored("failure").to_record(), **legacy_fields}
        )
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(line.encode() + b"\n")
        hit = store.lookup(SYS, FLAGS, (("h", 1),))
        assert hit is not None and hit.verdict == "failure"
        store.close()


class TestOwnAppends:
    """A handle serves its own records from memory instead of projecting
    each one into SQLite as it goes."""

    def test_cold_run_projects_at_open_and_close_only(
        self, tmp_path, monkeypatch
    ):
        calls = []
        original = SqliteProjection.catch_up

        def counted(self, journal):
            calls.append(1)
            return original(self, journal)

        monkeypatch.setattr(SqliteProjection, "catch_up", counted)
        report = SynthesisEngine(
            build_skeleton("msi-tiny"),
            SynthesisConfig(store_path=str(tmp_path)),
        ).run()
        assert report.store_writes == report.evaluated == 25
        assert len(calls) <= 2

    def test_foreign_record_between_own_records_is_seen(self, tmp_path):
        a = VerdictStore(str(tmp_path))
        b = VerdictStore(str(tmp_path))
        a.record(SYS, FLAGS, (("h", 0),), stored("success"))
        b.record(SYS, FLAGS, (("h", 1),), stored("failure"))
        a.record(SYS, FLAGS, (("h", 2),), stored("unknown"))
        assert a.lookup(SYS, FLAGS, (("h", 1),)).verdict == "failure"
        assert a.lookup(SYS, FLAGS, (("h", 0),)).verdict == "success"
        assert a.lookup(SYS, FLAGS, (("h", 2),)).verdict == "unknown"
        assert b.lookup(SYS, FLAGS, (("h", 2),)).verdict == "unknown"
        a.close()
        b.close()

    def test_len_counts_own_records(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for digit in range(3):
            store.record(SYS, FLAGS, (("h", digit),), stored())
        assert len(store) == 3
        store.close()
        with VerdictStore(str(tmp_path)) as reopened:
            assert len(reopened) == 3


class TestKeys:
    def test_assignment_order_does_not_matter(self):
        forward = candidate_key(SYS, FLAGS, (("a", 0), ("b", 1)))
        backward = candidate_key(SYS, FLAGS, (("b", 1), ("a", 0)))
        assert forward == backward

    def test_flags_signature_separates_verdict_affecting_knobs(self):
        base = flags_signature(SynthesisConfig())
        assert flags_signature(SynthesisConfig(packed=False)) != base
        assert flags_signature(SynthesisConfig(explorer="dfs")) != base
        assert flags_signature(SynthesisConfig(pruning=False)) != base
        # Performance-only knobs share verdicts.
        assert flags_signature(SynthesisConfig(prefix_reuse=False)) == base
        assert flags_signature(SynthesisConfig(compute_fingerprints=True)) == base

    def test_mismatched_flags_are_never_consulted(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        packed_flags = flags_signature(SynthesisConfig())
        object_flags = flags_signature(SynthesisConfig(packed=False))
        store.record(SYS, packed_flags, (("h", 0),), stored())
        assert store.lookup(SYS, object_flags, (("h", 0),)) is None
        store.close()

    def test_system_signature_separates_shapes(self):
        figure2 = system_signature(build_skeleton("figure2"))
        mutex = system_signature(build_skeleton("mutex"))
        assert figure2 != mutex
        # Deterministic across rebuilds of the same skeleton.
        assert figure2 == system_signature(build_skeleton("figure2"))


def _writer(path, worker, count, done):
    store = open_store(path)
    flags = f"w{worker}" * 8
    for index in range(count):
        store.record(SYS, flags, (("h", index),), StoredRun(verdict="success"))
    store.close()
    done.put(worker)


class TestConcurrentWriters:
    def test_two_processes_do_not_corrupt_the_projection(self, tmp_path):
        """Two writer processes interleave flock'd journal appends; a
        fresh reader must see every record and a clean SQLite file."""
        ctx = multiprocessing.get_context()
        done = ctx.Queue()
        count = 50
        procs = [
            ctx.Process(target=_writer, args=(str(tmp_path), w, count, done))
            for w in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reader = open_store(str(tmp_path))
        assert len(reader) == 2 * count
        for worker in range(2):
            flags = f"w{worker}" * 8
            for index in range(count):
                assert reader.lookup(SYS, flags, (("h", index),)) is not None
        reader.close()
        conn = sqlite3.connect(tmp_path / PROJECTION_NAME)
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        conn.close()
