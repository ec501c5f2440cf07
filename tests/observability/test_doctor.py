"""Doctor coverage: artifact fusion, dead-node naming, verdict synthesis.

Every scenario is built from real artifacts: a SQLite store written through
its public verbs, and flight records written by a :class:`FlightRecorder`.
"""

import json

import pytest

from repro.campaign.backends import create_store
from repro.errors import ObservabilityError
from repro.observability import diagnose_campaign
from repro.observability.flight import FlightRecorder, flight_dir


class FakeClock:
    def __init__(self, start=0.0, step=0.5):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def write_store(store, shards, complete):
    """A store in which every shard ``{id: (start, stop, finished)}``
    started; a finished one has every ligand done."""
    campaign = create_store(store, {"scenario": store.name}, "0" * 64)
    for shard_id, (start, stop, finished) in shards.items():
        campaign.start_shard(shard_id, start, stop)
        campaign.register_ligands([(o, f"L{o}") for o in range(start, stop)])
        if finished:
            for o in range(start, stop):
                campaign.record_result(
                    o, f"L{o}", -10.0 - o, 0, 100,
                    wall_seconds=0.1, simulated_seconds=0.1,
                )
            campaign.finish_shard(shard_id, 0.1 * (stop - start))
    if complete:
        campaign.mark_complete(max(stop for _, stop, _ in shards.values()))
    campaign.close()


def write_flight(store, role, events):
    rec = FlightRecorder(clock=FakeClock(), wall_clock=FakeClock(1e9))
    rec.attach(flight_dir(store) / f"{role}.flight")
    for kind, fields in events:
        rec.record(kind, **fields)
    rec.attach(None)


def write_metrics(store, doc):
    base = {
        "schema_version": 1,
        "counters": [],
        "gauges": [],
        "histograms": [],
        "spans": [],
        "dropped_spans": 0,
    }
    base.update(doc)
    (store.parent / (store.name + ".metrics.json")).write_text(
        json.dumps(base), encoding="utf-8"
    )


def section(report, title):
    return next(s for s in report.sections if s.title == title)


def test_nothing_to_diagnose_raises(tmp_path):
    with pytest.raises(ObservabilityError, match="nothing to diagnose"):
        diagnose_campaign(tmp_path / "ghost.sqlite")


def dead_node_campaign(store):
    """Node 1 died holding shard 1; shard 0 finished on node 0."""
    write_store(store, {0: (0, 4, True), 1: (4, 8, False)}, complete=False)
    write_flight(
        store,
        "coordinator",
        [
            ("node.connect", {"node": 0, "peer": "127.0.0.1:1"}),
            ("node.connect", {"node": 1, "peer": "127.0.0.1:2"}),
            ("lease.grant", {"shard": 0, "node": 0, "stolen": False}),
            ("lease.grant", {"shard": 1, "node": 1, "stolen": False}),
            ("shard.finish", {"shard": 0, "seconds": 1.0, "node": 0}),
            ("node.heartbeat", {"node": 1, "done": 2, "failed": 0}),
            ("node.dead", {"node": 1, "reason": "heartbeat timeout",
                           "reclaimed": [1], "requeued": 1}),
        ],
    )


def test_dead_node_is_named_with_evidence(tmp_path):
    store = tmp_path / "campaign.sqlite"
    dead_node_campaign(store)
    report = diagnose_campaign(store)
    text = report.to_text()
    assert "node 1 died" in text
    assert "heartbeat timeout" in text
    assert "1 lease(s) reclaimed" in text
    assert "last telemetry heartbeat" in text
    assert report.verdict == "bad"  # campaign never finished
    summary = section(report, "summary")
    assert summary.verdict == "warn"
    assert "store: 1 shard(s) finished, complete=NO" in summary.lines
    assert "4 ligand(s) of started shards still pending" in summary.headline
    diagnosis = section(report, "diagnosis")
    assert diagnosis.headline == "campaign is INCOMPLETE"
    assert any("reclaimed but the campaign never finished" in line
               for line in diagnosis.lines)


def test_dead_nodes_last_shard_comes_from_its_lease_grants(tmp_path):
    store = tmp_path / "campaign.sqlite"
    dead_node_campaign(store)
    assert not (tmp_path / "campaign.sqlite.journal").exists()
    dead = section(diagnose_campaign(store), "dead nodes")
    assert dead.verdict == "bad"
    assert any(
        line.startswith("node 1: 1 lease grant(s); last was shard 1 at ")
        for line in dead.lines
    ), dead.lines


def test_a_stopped_runner_is_named_with_its_last_event(tmp_path):
    store = tmp_path / "campaign.store"
    write_store(store, {0: (0, 4, True), 1: (4, 8, False)}, complete=False)
    write_flight(store, "runner", [
        ("shard.finish", {"shard": 0, "seconds": 1.0}),
        ("dock.retry", {"attempt": 1, "error": "RuntimeError: flaky"}),
    ])
    report = diagnose_campaign(store)
    diagnosis = section(report, "diagnosis")
    assert diagnosis.verdict == "bad"
    # The fake wall clock reads 1e9 + 1.5 s at the second event.
    assert diagnosis.lines == [
        "the runner stopped: its last event was dock.retry at 01:46:41 UTC"
    ]
    assert not any("coordinator" in line for line in diagnosis.lines)
    summary = section(report, "summary")
    assert "1 dock retry(ies) recorded; last: RuntimeError: flaky" in summary.lines


def test_a_stopped_coordinator_names_each_nodes_last_grant(tmp_path):
    store = tmp_path / "campaign.store"
    write_store(store, {0: (0, 4, True), 1: (4, 8, False)}, complete=False)
    write_flight(store, "coordinator", [
        ("lease.grant", {"shard": 0, "node": 0, "stolen": False}),
        ("lease.grant", {"shard": 1, "node": 1, "stolen": False}),
        ("lease.grant", {"shard": 2, "node": 0, "stolen": False}),
        ("shard.finish", {"shard": 0, "seconds": 1.0, "node": 0}),
    ])
    write_flight(store, "worker-node0", [("lease.accept", {"shard": 2})])
    diagnosis = section(diagnose_campaign(store), "diagnosis")
    assert diagnosis.verdict == "bad"
    assert diagnosis.lines[0].startswith(
        "the coordinator stopped: its last event was shard.finish at "
    )
    assert diagnosis.lines[1].startswith("node 0: 2 lease grant(s); last was shard 2 at ")
    assert diagnosis.lines[2].startswith("node 1: 1 lease grant(s); last was shard 1 at ")


def test_an_incomplete_store_without_a_record_says_so(tmp_path):
    store = tmp_path / "campaign.store"
    write_store(store, {0: (0, 4, False)}, complete=False)
    diagnosis = section(diagnose_campaign(store), "diagnosis")
    assert diagnosis.verdict == "bad"
    assert diagnosis.lines == [
        "the store is not marked complete, no node death was recorded and "
        "no runner or coordinator left a flight record"
    ]


def test_healthy_completed_campaign_reads_ok(tmp_path):
    store = tmp_path / "campaign.sqlite"
    write_store(store, {0: (0, 4, True)}, complete=True)
    write_flight(store, "runner", [("shard.finish", {"shard": 0, "seconds": 1.5})])
    report = diagnose_campaign(store)
    assert report.verdict == "ok"
    assert "nothing anomalous" in report.to_text()


def test_steal_storm_flagged(tmp_path):
    store = tmp_path / "campaign.sqlite"
    write_store(
        store, {i: (4 * i, 4 * i + 4, True) for i in range(10)}, complete=True
    )
    grants = [("lease.grant", {"shard": i, "node": i % 2, "stolen": i >= 4})
              for i in range(10)]
    steals = [("steal", {"thief": 1, "victim": 0, "shard": i})
              for i in range(4, 10)]
    write_flight(store, "coordinator", grants + steals)
    report = diagnose_campaign(store)
    stealing = section(report, "work stealing")
    assert stealing.verdict == "warn"
    assert "steal storm" in stealing.headline
    assert any("node 0 was stolen from 6 time(s)" in line
               for line in stealing.lines)
    assert report.verdict == "warn"


def test_slow_shards_surface(tmp_path):
    store = tmp_path / "campaign.sqlite"
    write_store(
        store, {i: (4 * i, 4 * i + 4, True) for i in range(10)}, complete=True
    )
    finishes = [("shard.finish", {"shard": i, "seconds": 0.5}) for i in range(6)]
    write_flight(
        store,
        "coordinator",
        [("lease.grant", {"shard": 3, "node": 0, "stolen": False})]
        + finishes
        + [("shard.finish", {"shard": 3, "seconds": 5.0})],
    )
    report = diagnose_campaign(store)
    slow = section(report, "slow shards")
    assert slow.verdict == "warn"
    assert any("shard 3 on node 0" in line and "10.0x median" in line
               for line in slow.lines)
    assert report.verdict == "warn"


def test_share_drift_from_metrics_snapshot(tmp_path):
    store = tmp_path / "campaign.sqlite"
    write_store(store, {0: (0, 8, True)}, complete=True)
    write_metrics(store, {
        "gauges": [
            {"name": "host.warmup.weight", "tags": {"worker": 0}, "value": 0.5},
            {"name": "host.warmup.weight", "tags": {"worker": 1}, "value": 0.5},
        ],
        "counters": [
            {"name": "host.worker.poses", "tags": {"worker": 0}, "value": 90.0},
            {"name": "host.worker.poses", "tags": {"worker": 1}, "value": 10.0},
        ],
    })
    report = diagnose_campaign(store)
    drift = section(report, "Eq. 1 share drift")
    assert drift.verdict == "warn"
    assert "worker 0 drifted +40.0%" in drift.headline
    assert report.verdict == "warn"


def test_report_json_shape(tmp_path):
    store = tmp_path / "campaign.sqlite"
    write_store(store, {0: (0, 1, True)}, complete=True)
    report = diagnose_campaign(store)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["schema_version"] == 1
    assert doc["verdict"] in ("ok", "warn", "bad")
    titles = [s["title"] for s in doc["sections"]]
    assert titles == [
        "summary", "dead nodes", "work stealing", "Eq. 1 share drift",
        "slow shards", "diagnosis",
    ]
    for entry in doc["sections"]:
        assert set(entry) == {"title", "verdict", "headline", "evidence"}


def test_torn_journal_tail_is_tolerated(tmp_path):
    # A torn `.journal` an older build left beside a completed store is not
    # read: the store says the campaign completed, and the file is untouched.
    store = tmp_path / "campaign.sqlite"
    write_store(store, {0: (0, 1, True)}, complete=True)
    journal = store.parent / (store.name + ".journal")
    records = [
        {"t": 1.0, "record": "campaign_start", "config_hash": "x"},
        {"t": 2.0, "record": "campaign_finish", "n_ligands": 1},
    ]
    text = "\n".join(json.dumps(r) for r in records) + "\n"
    journal.write_text(text + '{"t": 3.0, "record": "shard_st', encoding="utf-8")
    before = journal.read_bytes()
    report = diagnose_campaign(store)
    assert report.verdict == "ok"
    summary = section(report, "summary")
    assert "store: 1 shard(s) finished, complete=yes" in summary.lines
    assert journal.read_bytes() == before
