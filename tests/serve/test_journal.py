"""Tests for the crash-safe accept/done job journal."""

import json

from repro.serve import JobJournal, Request


def make_request(job_id: str) -> Request:
    return Request(id=job_id, op="fill",
                   params={"layout_path": "a.json", "method": "lin"})


class TestReplay:
    def test_accept_without_done_is_pending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.record_accept(make_request("j1"))
        journal.record_accept(make_request("j2"))
        journal.record_done("j1", "done")
        journal.close()
        pending = JobJournal.read_pending(path)
        assert [spec["id"] for spec in pending] == ["j2"]
        assert pending[0]["params"]["method"] == "lin"

    def test_all_done_means_empty(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for job_id in ("a", "b"):
            journal.record_accept(make_request(job_id))
            journal.record_done(job_id, "done")
        journal.close()
        assert JobJournal.read_pending(path) == []

    def test_missing_file_is_empty(self, tmp_path):
        assert JobJournal.read_pending(tmp_path / "absent.jsonl") == []

    def test_every_terminal_status_clears(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for i, status in enumerate(("error", "cancelled", "timeout",
                                    "rejected")):
            journal.record_accept(make_request(f"j{i}"))
            journal.record_done(f"j{i}", status)
        journal.close()
        assert JobJournal.read_pending(path) == []


class TestCrashTolerance:
    def test_torn_final_line_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.record_accept(make_request("ok"))
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "accept", "id": "torn", "requ')  # crash here
        pending = JobJournal.read_pending(path)
        assert [spec["id"] for spec in pending] == ["ok"]

    def test_garbage_lines_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            "\n".join([
                "not json at all",
                json.dumps([1, 2, 3]),
                json.dumps({"event": "accept"}),  # no id
                json.dumps({"event": "accept", "id": "good",
                            "request": make_request("good").to_wire()}),
                json.dumps({"event": "mystery", "id": "good"}),
            ]) + "\n"
        )
        pending = JobJournal.read_pending(path)
        assert [spec["id"] for spec in pending] == ["good"]


class TestOlderJournals:
    def test_swap_events_and_done_generations_are_skipped(self, tmp_path):
        """Journals written by versions that could hot-swap models hold
        ``swap`` events and done lines tagged with a ``generation``."""
        path = tmp_path / "journal.jsonl"
        lines = [
            {"event": "accept", "id": "j1",
             "request": make_request("j1").to_wire()},
            {"event": "accept", "id": "j2",
             "request": make_request("j2").to_wire()},
            {"event": "done", "id": "j1", "status": "done", "generation": 1},
            {"event": "swap", "model": "pkb", "generation": 2,
             "directory": "ckpt-2"},
            {"event": "accept", "id": "j3",
             "request": make_request("j3").to_wire()},
            {"event": "done", "id": "j3", "status": "error",
             "generation": 2},
            {"event": "accept", "id": "j4",
             "request": make_request("j4").to_wire()},
        ]
        path.write_text("".join(json.dumps(line, separators=(",", ":"))
                                + "\n" for line in lines))
        expected = [make_request(rid).to_wire() for rid in ("j2", "j4")]
        assert JobJournal.read_pending(path) == expected
        pending, fresh = JobJournal.recover(path)
        fresh.close()
        assert pending == expected


class TestRecover:
    def test_recover_truncates_and_reopens(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = JobJournal(path)
        first.record_accept(make_request("unfinished"))
        first.close()

        pending, fresh = JobJournal.recover(path)
        assert [spec["id"] for spec in pending] == ["unfinished"]
        # the fresh journal starts clean: old entries are gone
        assert JobJournal.read_pending(path) == []
        fresh.record_accept(make_request("new"))
        fresh.close()
        assert [s["id"] for s in JobJournal.read_pending(path)] == ["new"]

    def test_closed_journal_ignores_writes(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.close()
        journal.record_done("x", "done")  # must not raise
