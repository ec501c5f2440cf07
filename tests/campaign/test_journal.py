"""The JSONL journal the perf ledger still writes: durable records and
truncated-tail recovery."""

import json

import pytest

from repro.campaign.journal import CampaignJournal
from repro.errors import CampaignError


@pytest.fixture()
def journal(tmp_path):
    return CampaignJournal(tmp_path / "campaign.journal")


def test_replay_missing_file_is_empty(journal):
    state = journal.replay()
    assert state.started == {}
    assert state.finished == set()
    assert not state.campaign_finished
    assert state.config_hash is None


def test_append_replay_roundtrip(journal):
    journal.campaign_start("abc123")
    journal.shard_start(0, 0, 4)
    journal.shard_finish(0, 4, 0)
    journal.shard_start(1, 4, 8)
    state = journal.replay()
    assert state.config_hash == "abc123"
    assert state.started == {0: (0, 4), 1: (4, 8)}
    assert state.finished == {0}
    assert state.unfinished() == {1}
    assert not state.campaign_finished

    journal.shard_finish(1, 3, 1)
    journal.campaign_finish(8)
    state = journal.replay()
    assert state.unfinished() == set()
    assert state.campaign_finished


def test_records_are_one_json_line_each(journal):
    journal.campaign_start("h")
    journal.shard_start(2, 8, 12)
    lines = journal.path.read_text().splitlines()
    assert len(lines) == 2
    assert all(isinstance(json.loads(line), dict) for line in lines)


def test_truncated_tail_is_dropped(journal):
    # A SIGKILL mid-append leaves a partial final line; replay must treat it
    # as if the record was never written.
    journal.campaign_start("h")
    journal.shard_start(0, 0, 4)
    journal.shard_finish(0, 4, 0)
    with open(journal.path, "a") as fh:
        fh.write('{"record": "shard_start", "sha')  # torn write, no newline
    state = journal.replay()
    assert state.truncated_records == 1
    assert state.started == {0: (0, 4)}
    assert state.finished == {0}


def test_corruption_before_tail_raises(journal):
    journal.campaign_start("h")
    with open(journal.path, "a") as fh:
        fh.write("not json at all\n")
    journal.shard_start(0, 0, 4)
    with pytest.raises(CampaignError, match="corrupt journal"):
        journal.replay()


def test_valid_json_non_record_line_raises_midfile(journal):
    journal.campaign_start("h")
    with open(journal.path, "a") as fh:
        fh.write('["not", "a", "record"]\n')
    journal.shard_start(0, 0, 4)
    with pytest.raises(CampaignError, match="corrupt journal"):
        journal.replay()


def test_config_hash_change_midfile_raises(journal):
    journal.campaign_start("aaa")
    journal.campaign_start("bbb")
    with pytest.raises(CampaignError, match="config hash changed"):
        journal.replay()


def test_resume_marker_with_same_hash_ok(journal):
    journal.campaign_start("aaa")
    journal.shard_start(0, 0, 2)
    # A resume marker older builds wrote: an unknown kind now, ignored.
    journal.append({"record": "campaign_resume", "config_hash": "aaa"})
    state = journal.replay()
    assert state.config_hash == "aaa"
    assert state.unfinished() == {0}


def test_unknown_record_kinds_are_ignored(journal):
    journal.campaign_start("h")
    journal.append({"record": "future_marker", "x": 1})
    state = journal.replay()
    assert state.config_hash == "h"


def test_append_requires_record_key(journal):
    with pytest.raises(CampaignError):
        journal.append({"no": "kind"})
