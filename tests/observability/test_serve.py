"""HTTP scrape endpoint: /metrics, /healthz, and the live-campaign integration."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import observability as obs
from repro.errors import ObservabilityError
from repro.observability import CampaignHealth, MetricsServer, Telemetry


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture
def session():
    t = Telemetry()
    t.counter("campaign.ligands.done").inc(7)
    t.gauge("host.warmup.weight", worker=0).set(1.0)
    return t


def test_serves_prometheus_metrics_on_ephemeral_port(session):
    with MetricsServer(port=0, snapshot_fn=session.snapshot) as server:
        assert server.port != 0  # a real ephemeral port was bound
        status, headers, body = _get(server.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    assert "# TYPE repro_campaign_ligands_done counter" in body
    assert "repro_campaign_ligands_done 7.0" in body


def test_metrics_reflect_live_mutations(session):
    with MetricsServer(port=0, snapshot_fn=session.snapshot) as server:
        _, _, before = _get(server.url + "/metrics")
        session.counter("campaign.ligands.done").inc(3)
        _, _, after = _get(server.url + "/metrics")
    assert "repro_campaign_ligands_done 7.0" in before
    assert "repro_campaign_ligands_done 10.0" in after


def test_healthz_defaults_to_ok(session):
    with MetricsServer(port=0, snapshot_fn=session.snapshot) as server:
        status, headers, body = _get(server.url + "/healthz")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"status": "ok"}


def test_unknown_path_is_404(session):
    with MetricsServer(port=0, snapshot_fn=session.snapshot) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404


def test_broken_snapshot_fn_yields_500_not_crash(session):
    def broken():
        raise RuntimeError("registry on fire")

    with MetricsServer(port=0, snapshot_fn=broken) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/metrics")
        assert excinfo.value.code == 500
        # The server survives the failed scrape.
        status, _, _ = _get(server.url + "/healthz")
        assert status == 200


def test_invalid_port_rejected():
    with pytest.raises(ObservabilityError, match="port"):
        MetricsServer(port=70000)


def test_url_before_start_is_clean_error():
    with pytest.raises(ObservabilityError, match="not started"):
        MetricsServer(port=0).url


def test_stop_is_idempotent_and_releases_port(session):
    server = MetricsServer(port=0, snapshot_fn=session.snapshot).start()
    port = server.port
    server.stop()
    server.stop()
    # The port is genuinely free again: a new server can claim it.
    with MetricsServer(port=port, snapshot_fn=session.snapshot) as reuse:
        assert reuse.port == port


# ----------------------------------------------------------------------
# CampaignHealth
# ----------------------------------------------------------------------
class FakeProgress:
    def __init__(self, shard_id=0, done=4, failed=0, total=16,
                 elapsed_seconds=2.0, ligands_per_second=2.0,
                 eta_seconds=6.0):
        self.shard_id = shard_id
        self.done = done
        self.failed = failed
        self.total = total
        self.elapsed_seconds = elapsed_seconds
        self.ligands_per_second = ligands_per_second
        self.eta_seconds = eta_seconds


def test_campaign_health_lifecycle():
    health = CampaignHealth(total_shards=4)
    assert health.health()["status"] == "starting"
    health.update(FakeProgress())
    doc = health.health()
    assert doc["status"] == "running"
    assert doc["campaign"]["done"] == 4 and doc["campaign"]["total"] == 16
    assert doc["campaign"]["eta_seconds"] == pytest.approx(6.0)
    health.finish("complete")
    assert health.health()["status"] == "complete"


def test_campaign_health_nan_eta_is_json_null():
    health = CampaignHealth()
    health.update(FakeProgress(eta_seconds=float("nan"), total=None))
    doc = health.health()
    assert doc["campaign"]["eta_seconds"] is None  # strict JSON, no NaN
    json.dumps(doc)  # round-trips without allow_nan leniency


def test_campaign_health_reports_pool_idle_fraction():
    from repro import observability as obs

    health = CampaignHealth()
    idle = obs.counter("host.pool.idle.seconds")
    baseline = idle.value
    idle.inc(1.0)
    health.update(FakeProgress(elapsed_seconds=(baseline + 1.0) * 2))
    doc = health.health()
    # idle counter over elapsed time: (baseline + 1.0) / (2 * (baseline + 1.0))
    assert doc["campaign"]["pool_idle_fraction"] == pytest.approx(0.5)
    # Never above 1.0 even when the counter outruns a stale elapsed figure.
    health.update(FakeProgress(elapsed_seconds=1e-9))
    assert health.health()["campaign"]["pool_idle_fraction"] == 1.0
    # No elapsed time yet -> unknown, not a division error.
    health.update(FakeProgress(elapsed_seconds=0.0))
    assert health.health()["campaign"]["pool_idle_fraction"] is None


def test_campaign_health_prefers_sampler_window_rate():
    class FakeSampler:
        last_record = {"derived": {"ligands_per_s": 4.0}}

    health = CampaignHealth(sampler=FakeSampler())
    health.update(FakeProgress(done=4, failed=0, total=16,
                               ligands_per_second=1.0, eta_seconds=12.0))
    doc = health.health()
    # ETA recomputed from the 4 lig/s window rate: 12 remaining / 4 = 3s.
    assert doc["campaign"]["ligands_per_second"] == pytest.approx(4.0)
    assert doc["campaign"]["eta_seconds"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# the acceptance-criteria integration: scrape a campaign WHILE it docks
# ----------------------------------------------------------------------
def test_scrape_live_campaign_while_docking(tmp_path):
    from repro.campaign import CampaignRunner, SyntheticSource
    from repro.molecules.synthetic import generate_receptor

    obs.reset()
    receptor = generate_receptor(80, seed=2)
    first_shard = threading.Event()
    health = CampaignHealth()
    scraped = {}

    server = MetricsServer(port=0, health_fn=health.health).start()

    def progress(p):
        health.update(p)
        first_shard.set()

    runner = CampaignRunner(
        receptor,
        SyntheticSource(6, atoms_range=(8, 10), seed=5),
        store_path=tmp_path / "c.store",
        n_spots=2,
        metaheuristic="M1",
        seed=1,
        workload_scale=0.05,
        shard_size=2,
        progress=progress,
    )

    def scrape():
        assert first_shard.wait(30), "campaign never reported a shard"
        scraped["metrics"] = _get(server.url + "/metrics")
        scraped["health"] = _get(server.url + "/healthz")

    scraper = threading.Thread(target=scrape)
    scraper.start()
    try:
        with runner.run() as store:
            assert store.counts()["done"] == 6
        scraper.join(timeout=30)
        assert not scraper.is_alive()
    finally:
        server.stop()

    status, headers, body = scraped["metrics"]
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    # Mid-campaign scrape sees real in-flight counters.
    assert "repro_campaign_ligands_done" in body
    assert "repro_campaign_shards_done" in body

    status, _, body = scraped["health"]
    assert status == 200
    doc = json.loads(body)
    assert doc["status"] == "running"
    assert doc["campaign"]["done"] >= 2  # at least the first shard
    assert doc["campaign"]["total"] is None or doc["campaign"]["total"] >= 6
    assert "eta_seconds" in doc["campaign"]
    assert "ligands_per_second" in doc["campaign"]


# ----------------------------------------------------------------------
# distributed-campaign surface: bind retry + /healthz node table
# ----------------------------------------------------------------------
def test_occupied_port_error_names_the_port(monkeypatch, session):
    monkeypatch.setattr(MetricsServer, "_BIND_ATTEMPTS", 2)
    monkeypatch.setattr(MetricsServer, "_BIND_BACKOFF_S", 0.01)
    with MetricsServer(port=0, snapshot_fn=session.snapshot) as occupant:
        with pytest.raises(ObservabilityError) as err:
            MetricsServer(port=occupant.port, snapshot_fn=session.snapshot).start()
    message = str(err.value)
    assert str(occupant.port) in message
    assert "already in use" in message
    assert "--serve-metrics" in message  # tells the operator what to change


def test_bind_retries_until_the_port_frees_up(monkeypatch, session):
    monkeypatch.setattr(MetricsServer, "_BIND_BACKOFF_S", 0.05)
    occupant = MetricsServer(port=0, snapshot_fn=session.snapshot).start()
    port = occupant.port
    threading.Timer(0.15, occupant.stop).start()
    with MetricsServer(port=port, snapshot_fn=session.snapshot) as server:
        assert server.port == port  # bound once the occupant released it


def test_healthz_serves_cluster_node_table():
    from repro.cluster import ClusterProgress

    health = CampaignHealth()
    health.update(
        ClusterProgress(
            shard_id=3,
            done=10,
            failed=0,
            total=16,
            elapsed_seconds=2.0,
            ligands_per_second=5.0,
            eta_seconds=1.2,
            nodes=(
                {"node": 0, "state": "active", "done": 6, "failed": 0,
                 "queued": 1, "outstanding": 1, "weight": 0.6},
                {"node": 1, "state": "active", "done": 4, "failed": 0,
                 "queued": 1, "outstanding": 1, "weight": 0.4},
            ),
        )
    )
    doc = health.health()
    assert doc["campaign"]["done"] == 10
    assert [row["node"] for row in doc["nodes"]] == [0, 1]
    assert doc["nodes"][0]["weight"] == pytest.approx(0.6)
    # Single-node progress keeps the document shape unchanged.
    health2 = CampaignHealth()
    health2.update(
        ClusterProgress(
            shard_id=0, done=1, failed=0, total=2, elapsed_seconds=0.1,
            ligands_per_second=1.0, eta_seconds=1.0,
        )
    )
    assert "nodes" not in health2.health()
