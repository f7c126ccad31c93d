"""Cross-host shard federation: shard maps, breakers, retry, failover.

The remote side of every test is a real in-process HTTP server (the
same ``make_server`` front production uses); the network failure matrix
is driven through the ``service.remote`` fault site, which fires inside
:meth:`RemoteShardClient._attempt` -- no real sockets are harmed.
"""

import json
import threading

import pytest

from repro.runtime import faults
from repro.runtime.errors import (
    CircuitOpenError,
    RemoteShardError,
    TransientIOError,
)
from repro.service import ServiceClient
from repro.service.federation import (
    FAULT_SITE,
    CircuitBreaker,
    FederationPolicy,
    RemoteShard,
    RemoteShardClient,
    ShardMap,
    resolve_shard_map,
)
from repro.service.http import make_server, request_json

KERNEL = "trisolv"

#: Fast-failing policy for tests: no blind waits, no background thread.
FAST = FederationPolicy(
    attempts=2,
    base_backoff_s=0.001,
    max_backoff_s=0.005,
    retry_after_cap_s=0.05,
    request_timeout_s=60.0,
    health_timeout_s=5.0,
    failure_threshold=2,
    cooldown_s=60.0,
    health_interval_s=0.0,
)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("fed_remote") / "store"
    # Module-scoped, so built before the autouse executor pin: name the
    # in-thread executor explicitly, or multi-core hosts get a process
    # pool whose workers never see the tests' monkeypatches.
    server = make_server(
        "127.0.0.1", 0, store=str(store), executor="thread"
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield server, base
    server.shutdown()
    server.close()
    thread.join(timeout=10)


def front(base_url, policy=FAST, **kwargs):
    """A federated front whose single shard slot is the remote server."""
    shard_map = ShardMap.from_json({"shards": [base_url]})
    shard_map.policy = policy
    kwargs.setdefault("store", False)
    return ServiceClient(shard_map=shard_map, **kwargs)


def event_kinds(client):
    return [event.kind for event in client.events()]


def assert_balanced(client):
    kinds = event_kinds(client)
    submitted = kinds.count("submitted")
    terminal = sum(kinds.count(k) for k in ("completed", "failed", "shed"))
    assert submitted == terminal, kinds


# ---------------------------------------------------------------------------
# shard-map config
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_bare_list(self):
        shard_map = ShardMap.from_json(["local", "http://h1:8177/"])
        assert len(shard_map) == 2
        assert not shard_map.slots[0].is_remote
        assert shard_map.slots[1].url == "http://h1:8177"  # slash stripped
        assert len(shard_map.remote_slots()) == 1

    def test_object_form_with_policy(self):
        shard_map = ShardMap.from_json({
            "shards": [{"url": "https://h1:8177"}, "local"],
            "policy": {"attempts": 5, "cooldown_s": 1.5},
        })
        assert shard_map.slots[0].url == "https://h1:8177"
        assert shard_map.policy.attempts == 5
        assert shard_map.policy.cooldown_s == 1.5
        # Unspecified fields keep their defaults.
        assert shard_map.policy.failure_threshold == 3

    def test_roundtrip(self):
        shard_map = ShardMap.from_json(["local", "http://h1:1"])
        again = ShardMap.from_json(shard_map.to_json())
        assert [slot.label() for slot in again.slots] == ["local", "http://h1:1"]

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"shards": []},
            {"shards": ["local"], "bogus": 1},
            {"shards": [{"url": "http://h1", "weight": 2}]},
            {"shards": [{}]},
            ["ftp://h1:21"],
            [42],
            {"shards": ["local"], "policy": {"bogus": 1}},
            {"shards": ["local"], "policy": {"attempts": 0}},
        ],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            ShardMap.from_json(data)

    def test_load_inline_json_and_file(self, tmp_path):
        inline = ShardMap.load('["local", "http://h1:8177"]')
        assert len(inline) == 2
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"shards": ["http://h2:8177"]}))
        from_file = ShardMap.load(path)
        assert from_file.slots[0].url == "http://h2:8177"

    def test_load_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            ShardMap.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            ShardMap.load(bad)

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_MAP", raising=False)
        assert resolve_shard_map(None) is None
        monkeypatch.setenv("REPRO_SHARD_MAP", '["local", "local"]')
        assert len(resolve_shard_map(None)) == 2
        explicit = ShardMap.from_json(["local"])
        assert resolve_shard_map(explicit) is explicit
        assert len(resolve_shard_map('["http://h1:1"]')) == 1


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_transition_matrix(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=10.0, clock=clock
        )
        # closed: flows; sub-threshold failures keep it closed.
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        # threshold reached: open, refusing without cooldown.
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        # cooldown expiry: half-open, exactly one probe.
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()
        assert not breaker.allow()  # the probe token is spent
        # probe failure: straight back to open, cooldown restarted.
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(10.0)
        assert breaker.allow()
        # probe success: closed, failure count reset.
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"  # count restarted from zero

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive*

    def test_health_ok_shortcuts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1e9, clock=clock
        )
        breaker.note_health_ok()  # no-op while closed
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        breaker.note_health_ok()
        assert breaker.state == "half-open"
        assert breaker.allow()  # the next real request is the probe
        assert not breaker.allow()

    def test_snapshot(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {
            "state": "closed",
            "consecutive_failures": 1,
            "failure_threshold": 3,
        }


# ---------------------------------------------------------------------------
# remote shard client: retry ladder + fault matrix
# ---------------------------------------------------------------------------


class TestRemoteShardClient:
    def client(self, base, **overrides):
        sleeps = []
        policy = FederationPolicy(**{
            "attempts": 3, "base_backoff_s": 0.01, "max_backoff_s": 0.02,
            "retry_after_cap_s": 0.05, "health_interval_s": 0.0,
            **overrides,
        })
        client = RemoteShardClient(
            base, policy=policy, sleep=sleeps.append
        )
        return client, sleeps

    def test_retry_succeeds_after_transient_fault(self, server):
        _, base = server
        client, sleeps = self.client(base)
        with faults.inject(FAULT_SITE, "refuse", arg=2):
            body = client.query({})
        assert "rows" in body
        assert len(sleeps) == 2  # two failed attempts, two backoffs

    def test_backoff_is_bounded_and_jittered(self, server):
        _, base = server
        client, sleeps = self.client(base, max_backoff_s=0.02)
        with faults.inject(FAULT_SITE, "refuse", arg=2):
            client.query({})
        assert all(0 < delay < 0.03 for delay in sleeps), sleeps

    @pytest.mark.parametrize(
        "kind", ["refuse", "timeout", "droppedconn", "garbage"]
    )
    def test_exhaustion_raises_transient(self, server, kind):
        _, base = server
        client, sleeps = self.client(base, attempts=2)
        with faults.inject(FAULT_SITE, kind):
            with pytest.raises(TransientIOError, match="2 attempt"):
                client.query({})
        assert len(sleeps) == 1

    def test_slow_fault_delays_but_succeeds(self, server):
        _, base = server
        client, _ = self.client(base)
        with faults.inject(FAULT_SITE, "slow", arg=0.01):
            assert "rows" in client.query({})

    def test_garbage_is_a_structured_failure(self, server):
        _, base = server
        client, _ = self.client(base, attempts=1)
        with faults.inject(FAULT_SITE, "garbage"):
            with pytest.raises(TransientIOError, match="undecodable"):
                client.query({})

    def test_non_idempotent_never_retries(self, server):
        _, base = server
        client, sleeps = self.client(base)
        # A second attempt would succeed -- but must never be made.
        with faults.inject(FAULT_SITE, "refuse", arg=1):
            with pytest.raises(RemoteShardError):
                client.request("/v1/query", idempotent=False)
        assert sleeps == []

    def test_submit_wait_roundtrip_with_transient_fault(self, server):
        _, base = server
        client, _ = self.client(base)
        with faults.inject(FAULT_SITE, "droppedconn", arg=1):
            row = client.submit_wait(
                {"benchmark": KERNEL}, timeout_s=300.0
            )
        assert row["state"] == "completed"
        assert row["report"]["benchmark"] == KERNEL

    def test_stream_is_single_attempt(self, server):
        _, base = server
        client, sleeps = self.client(base)
        with faults.inject(FAULT_SITE, "refuse", arg=1):
            with pytest.raises(RemoteShardError):
                list(client.stream([{"benchmark": KERNEL}]))
        assert sleeps == []  # broken streams are the caller's call
        rows = list(
            client.stream([{"benchmark": KERNEL}], timeout_s=300.0)
        )
        assert len(rows) == 1
        assert rows[0]["state"] == "completed"

    def test_healthz_is_unretried(self, server):
        _, base = server
        client, sleeps = self.client(base)
        with faults.inject(FAULT_SITE, "timeout", arg=1):
            with pytest.raises(RemoteShardError):
                client.healthz()
        assert sleeps == []
        body = client.healthz()
        assert body["ok"] is True
        assert "versions" in body and "scheduler" in body

    def test_dead_endpoint_is_a_remote_shard_error(self):
        # Port 1 on loopback: a real (instant) connection refusal.
        client, _ = self.client("http://127.0.0.1:1", attempts=1)
        with pytest.raises(TransientIOError):
            client.query({})

    def test_retry_after_hint_is_honoured(self):
        client, sleeps = self.client("http://unused:1")
        answers = iter([
            (429, {"error": "quota", "retry_after_s": 0.04}),
            (200, {"rows": []}),
        ])
        client._attempt = lambda *args, **kwargs: next(answers)
        assert client.query({}) == {"rows": []}
        assert sleeps == [0.04]  # the hint, not the backoff schedule

    def test_retry_after_hint_is_capped(self):
        client, sleeps = self.client(
            "http://unused:1", retry_after_cap_s=0.03
        )
        answers = iter([
            (503, {"error": "queue full", "retry_after_s": 3600}),
            (200, {"rows": []}),
        ])
        client._attempt = lambda *args, **kwargs: next(answers)
        client.query({})
        assert sleeps == [0.03]  # a lying server cannot park us for an hour


# ---------------------------------------------------------------------------
# health checking + version skew
# ---------------------------------------------------------------------------


class TestRemoteShardHealth:
    def test_healthy_probe_promotes_open_breaker(self, server):
        _, base = server
        remote = RemoteShard(0, base, policy=FAST)
        remote.breaker.record_failure()
        remote.breaker.record_failure()
        assert remote.breaker.state == "open"
        assert remote.check_health() is True
        assert remote.healthy is True
        assert remote.breaker.state == "half-open"  # not closed: probe next
        snap = remote.snapshot()
        assert snap["kind"] == "remote"
        assert snap["remote_queue_depths"] is not None

    def test_dead_endpoint_counts_toward_opening(self):
        remote = RemoteShard(0, "http://127.0.0.1:1", policy=FAST)
        assert remote.check_health() is False
        assert remote.healthy is False
        assert remote.check_health() is False
        assert remote.breaker.state == "open"  # threshold 2
        assert "last_error" in remote.snapshot()

    def test_version_skew_marks_unhealthy(self, server):
        _, base = server

        class SkewedClient:
            url = base

            def healthz(self):
                return {"ok": True, "versions": {"spec": "from-the-future"}}

        remote = RemoteShard(0, base, policy=FAST, client=SkewedClient())
        assert remote.check_health() is False
        assert remote.version_skew is True
        assert "skew" in remote.last_error


# ---------------------------------------------------------------------------
# federated scheduler: attribution, failover, accounting
# ---------------------------------------------------------------------------


class TestFederatedScheduler:
    def test_remote_serving_and_attribution(self, server):
        _, base = server
        with front(base) as client:
            report = client.characterize(KERNEL, timeout=300)
            assert report.benchmark == KERNEL
            (job,) = client.scheduler.jobs()
            assert job["served_by"] == "remote"
            kinds = event_kinds(client)
            assert "failover" not in kinds
            started = client.events("started")[0]
            assert base in started.detail
            completed = client.events("completed")[0]
            assert completed.detail.endswith(":remote")
            assert_balanced(client)

    @pytest.mark.parametrize(
        "kind", ["refuse", "timeout", "droppedconn", "garbage"]
    )
    def test_failover_under_every_network_fault(self, server, kind):
        _, base = server
        with front(base) as client:
            with faults.inject(FAULT_SITE, kind):
                report = client.characterize(KERNEL, timeout=300)
            assert report.benchmark == KERNEL
            (job,) = client.scheduler.jobs()
            assert job["served_by"] == "local_failover"
            kinds = event_kinds(client)
            assert kinds.count("failover") == 1
            assert kinds.count("completed") == 1
            assert_balanced(client)

    def test_open_circuit_fails_over_without_touching_the_wire(
        self, server
    ):
        _, base = server
        policy = FederationPolicy(
            attempts=1, base_backoff_s=0.001, failure_threshold=1,
            cooldown_s=1e9, health_interval_s=0.0,
        )
        with front(base, policy=policy) as client:
            with faults.inject(FAULT_SITE, "refuse", arg=1):
                client.characterize(KERNEL, timeout=300)
            (remote,) = client.scheduler.remote_shards()
            assert remote.breaker.state == "open"
            # Second job: the fault is exhausted, the server is fine --
            # but the breaker refuses instantly, before any attempt.
            client.characterize(KERNEL, objective="energy", timeout=300)
            jobs = {
                row["objective"]: row for row in client.scheduler.jobs()
            }
            assert jobs["edp"]["served_by"] == "local_failover"
            assert jobs["energy"]["served_by"] == "local_failover"
            failover = client.events("failover")
            assert any("CircuitOpen" in e.detail for e in failover)
            assert_balanced(client)

    def test_half_open_probe_recovers_the_shard(self, server):
        _, base = server
        policy = FederationPolicy(
            attempts=1, base_backoff_s=0.001, failure_threshold=1,
            cooldown_s=1e9, health_interval_s=0.0,
        )
        with front(base, policy=policy) as client:
            with faults.inject(FAULT_SITE, "droppedconn", arg=1):
                client.characterize(KERNEL, timeout=300)
            (remote,) = client.scheduler.remote_shards()
            assert remote.breaker.state == "open"
            # An out-of-band health success (the checker's job) promotes
            # the breaker to half-open without waiting out the cooldown.
            assert remote.check_health() is True
            assert remote.breaker.state == "half-open"
            # The next job is the probe; its success closes the circuit.
            client.characterize(KERNEL, objective="energy", timeout=300)
            assert remote.breaker.state == "closed"
            served = [
                row["served_by"] for row in client.scheduler.jobs()
            ]
            assert sorted(served) == ["local_failover", "remote"]
            assert_balanced(client)

    def test_remote_job_level_error_does_not_fail_over(
        self, server, monkeypatch
    ):
        _, base = server

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic executor crash")

        # The remote server lives in this process and resolves
        # execute_report at call time, so this breaks *its* pipeline;
        # a spec not yet in its store forces the computed path.
        monkeypatch.setattr(
            "repro.service.executor.execute_report", boom
        )
        with front(base) as client:
            with pytest.raises(Exception, match="remote shard"):
                client.characterize(
                    "mvt", objective="performance", timeout=60
                )
            (job,) = client.scheduler.jobs()
            assert job["state"] == "failed"
            # The shard *answered*; recomputing locally would fail the
            # same way, so no failover -- and the breaker stays closed.
            assert event_kinds(client).count("failover") == 0
            (remote,) = client.scheduler.remote_shards()
            assert remote.breaker.state == "closed"
            assert_balanced(client)

    def test_stats_reports_federation_slots(self, server):
        _, base = server
        with front(base) as client:
            stats = client.scheduler.stats()
            assert client.scheduler.shards == 1
            (slot,) = stats["federation"]
            assert slot["slot"] == 0
            assert slot["url"] == base
            assert slot["breaker"]["state"] == "closed"

    def test_local_slots_stay_local(self, server):
        _, base = server
        shard_map = ShardMap.load('["local", "local"]')
        with ServiceClient(store=False, shard_map=shard_map) as client:
            client.characterize(KERNEL, timeout=300)
            (job,) = client.scheduler.jobs()
            assert job["served_by"] == "local"
            assert client.scheduler.remote_shards() == []


# ---------------------------------------------------------------------------
# federated query + enriched healthz over HTTP
# ---------------------------------------------------------------------------


class TestFederatedFrontHTTP:
    def test_federated_query_marks_partial_results(self, server):
        _, base = server
        shard_map = ShardMap.from_json(
            {"shards": [base, "http://127.0.0.1:1"]}
        )
        shard_map.policy = FAST
        with ServiceClient(store=False, shard_map=shard_map) as client:
            result = client.federated_query(benchmark=KERNEL)
            assert result["partial"] is True
            (gone,) = result["unavailable"]
            assert gone["url"] == "http://127.0.0.1:1"
            # The healthy shard still answered: earlier tests populated
            # the module server's store with this kernel.
            assert any(
                row["benchmark"] == KERNEL for row in result["rows"]
            )
            # Rows are deduplicated by digest.
            digests = [row["digest"] for row in result["rows"]]
            assert len(digests) == len(set(digests))

    def test_open_breaker_skipped_without_burning_the_probe(self, server):
        _, base = server
        with front(base) as client:
            (remote,) = client.scheduler.remote_shards()
            remote.breaker.record_failure()
            remote.breaker.record_failure()
            remote.breaker.note_health_ok()  # half-open: one probe token
            result = client.federated_query()
            # Not "open", so the query leg ran -- but via state inspection,
            # never via allow(); the probe token is still unspent.
            assert result["partial"] is False
            remote.breaker.record_failure()  # back to open
            result = client.federated_query()
            assert result["partial"] is True
            assert result["unavailable"][0]["error"] == "circuit open"

    def test_healthz_is_enriched(self, server):
        _, base = server
        code, body = request_json(base + "/v1/healthz")
        assert code == 200
        assert body["ok"] is True
        assert body["store"]["root"]
        scheduler = body["scheduler"]
        assert scheduler["shards"] == len(scheduler["queue_depths"])
        assert "max_pending" in scheduler
        assert "avg_job_s" in scheduler
        assert body["versions"]  # the skew-detection recipe

    def test_refusals_carry_retry_after(self, server, tmp_path):
        import urllib.request

        store = tmp_path / "front_store"
        quota_server = make_server(
            "127.0.0.1", 0, store=str(store), client_quota=1
        )
        thread = threading.Thread(
            target=quota_server.serve_forever, daemon=True
        )
        thread.start()
        base = f"http://127.0.0.1:{quota_server.server_address[1]}"
        try:
            with faults.inject("cm.chunk", "slow", arg=0.2):
                payload = json.dumps({
                    "specs": [
                        {"benchmark": KERNEL},
                        {"benchmark": KERNEL, "objective": "energy"},
                    ],
                    "wait": False,
                }).encode()
                request = urllib.request.Request(
                    base + "/v1/jobs", data=payload,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=30) as resp:
                        code, headers = resp.status, resp.headers
                        body = json.loads(resp.read())
                except urllib.error.HTTPError as exc:
                    code, headers = exc.code, exc.headers
                    body = json.loads(exc.read())
            assert code == 429
            assert body["retry_after_s"] >= 0.5
            assert int(headers["Retry-After"]) >= 1
            # The job admitted before the refusal is preserved.
            assert len(body["jobs"]) == 1
        finally:
            quota_server.shutdown()
            quota_server.close()
            thread.join(timeout=10)

    def test_scheduler_retry_after_hint_is_clamped(self, server):
        _, base = server
        with front(base) as client:
            hint = client.scheduler.retry_after_hint()
            assert 0.5 <= hint <= 60.0


# ---------------------------------------------------------------------------
# batched remote dispatch: one stream request per shard
# ---------------------------------------------------------------------------


def counting_remote(client):
    """Wrap the front's remote client with wire-call counters."""
    (remote,) = client.scheduler.remote_shards()
    calls = {"stream": 0, "submit_wait": 0}
    orig_stream = remote.client.stream
    orig_submit_wait = remote.client.submit_wait

    def stream(specs, **kwargs):
        calls["stream"] += 1
        return orig_stream(specs, **kwargs)

    def submit_wait(spec, **kwargs):
        calls["submit_wait"] += 1
        return orig_submit_wait(spec, **kwargs)

    remote.client.stream = stream
    remote.client.submit_wait = submit_wait
    return calls


class TestStreamBatching:
    def test_batch_is_one_stream_request_not_per_job_fanout(self, server):
        _, base = server
        with front(base) as client:
            calls = counting_remote(client)
            specs = [
                {"benchmark": KERNEL, "objective": objective}
                for objective in ("edp", "energy", "performance")
            ]
            jobs = client.submit_batch(specs)
            reports = client.wait_all(jobs, timeout=300)
            assert [r.benchmark for r in reports] == [KERNEL] * 3
            # The whole batch crossed the wire exactly once.
            assert calls == {"stream": 1, "submit_wait": 0}
            assert all(
                row["served_by"] == "remote"
                for row in client.scheduler.jobs()
            )
            assert event_kinds(client).count("failover") == 0
            assert_balanced(client)

    def test_single_job_batch_keeps_the_retried_per_job_path(self, server):
        _, base = server
        with front(base) as client:
            calls = counting_remote(client)
            (job,) = client.submit_batch([{"benchmark": KERNEL}])
            assert job.result(300).benchmark == KERNEL
            # A group of one gains nothing from the single-attempt
            # stream; it keeps the retry-laddered submit_wait leg.
            assert calls == {"stream": 0, "submit_wait": 1}
            assert_balanced(client)

    def test_unbatched_submit_still_forwards_per_job(self, server):
        _, base = server
        with front(base) as client:
            calls = counting_remote(client)
            job = client.submit({"benchmark": KERNEL})
            assert job.result(300).benchmark == KERNEL
            assert calls == {"stream": 0, "submit_wait": 1}

    def test_broken_stream_fails_over_every_batch_member(self, server):
        _, base = server
        with front(base) as client:
            calls = counting_remote(client)
            with faults.inject(FAULT_SITE, "droppedconn"):
                jobs = client.submit_batch([
                    {"benchmark": KERNEL},
                    {"benchmark": KERNEL, "objective": "energy"},
                ])
                reports = client.wait_all(jobs, timeout=300)
            assert [r.benchmark for r in reports] == [KERNEL] * 2
            assert calls["stream"] == 1  # one broken wire attempt
            served = [row["served_by"] for row in client.scheduler.jobs()]
            assert served == ["local_failover", "local_failover"]
            assert event_kinds(client).count("failover") == 2
            assert_balanced(client)

    def test_job_level_errors_in_stream_do_not_fail_over(
        self, server, monkeypatch
    ):
        _, base = server

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic executor crash")

        # Breaks the *remote* server's pipeline (same process); fresh
        # specs dodge its store so the computed path is forced.
        monkeypatch.setattr(
            "repro.service.executor.execute_report", boom
        )
        with front(base) as client:
            jobs = client.submit_batch([
                {"benchmark": "bicg", "objective": "energy"},
                {"benchmark": "bicg", "objective": "performance"},
            ])
            for job in jobs:
                with pytest.raises(Exception, match="remote shard"):
                    job.result(300)
            # The shard answered both rows: job failures, not shard
            # failures -- no failover, breaker still closed.
            assert event_kinds(client).count("failover") == 0
            (remote,) = client.scheduler.remote_shards()
            assert remote.breaker.state == "closed"
            assert_balanced(client)
