"""Fault-tolerance tests for the serve runtime: deadlines, retries,
poison isolation, circuit breakers, engine degradation, worker death.

Every scenario arms :mod:`repro.faults` with a deterministic seed (or
hand-builds a poison request), so failures here replay exactly.
"""

import threading
import time

import numpy as np
import pytest

from repro.backend import BackendCapabilityError
from repro.dynamics import BatchStates, batch_evaluate
from repro.dynamics.engine import CompiledEngine, LoopEngine, register_engine
from repro.dynamics.functions import RBDFunction
from repro.dynamics.process import ProcessEngine
from repro.faults import FaultSpec, InjectedFault, injected
from repro.model.library import load_robot
from repro.serve import (
    BatchExecutionError,
    BatchPolicy,
    DeadlineExceededError,
    DynamicBatcher,
    DynamicsService,
    RetryPolicy,
    ServeError,
    ServeRequest,
)


def _request(function=RBDFunction.M, robot="iiwa", nv=7, **kwargs):
    return ServeRequest(robot=robot, function=function,
                        q=np.zeros(nv), qd=np.zeros(nv), u=np.zeros(nv),
                        **kwargs)


def _wait_until(predicate, timeout_s=5.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


class TestRetryPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(RuntimeError("transient"))
        assert not policy.is_retryable(ValueError("poison"))
        assert not policy.is_retryable(TypeError("poison"))
        # An explicit retryable attribute (InjectedFault) is believed
        # over the type-based default.
        assert policy.is_retryable(
            InjectedFault("x", site="s", retryable=True))
        assert not policy.is_retryable(
            InjectedFault("x", site="s", retryable=False))

    def test_backoff_grows_and_jitters_within_bounds(self):
        from random import Random
        policy = RetryPolicy(backoff_s=1e-3, backoff_multiplier=2.0,
                             jitter=0.25)
        rng = Random(0)
        d1 = policy.backoff_for(1, rng)
        d3 = policy.backoff_for(3, rng)
        assert 0.75e-3 <= d1 <= 1.25e-3
        assert 3e-3 <= d3 <= 5e-3


class TestDeadlines:
    def test_submit_rejects_nonpositive_deadline(self):
        with DynamicsService(n_shards=1) as svc:
            with pytest.raises(ValueError):
                svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                           deadline_s=0.0)

    def test_request_expiry(self):
        r = _request(deadline_s=0.5)
        r.arrival_s = 100.0
        assert not r.expired(100.4)
        assert r.expired(100.5)
        assert not _request().expired(1e12)     # no deadline, never expires

    def test_batcher_sheds_expired(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=64, max_wait_s=10.0))
        keep = _request()
        lapsed = _request(deadline_s=0.1)
        batcher.add(keep, now=0.0)
        batcher.add(lapsed, now=0.0)
        assert batcher.has_deadlines
        shed = batcher.shed_expired(now=0.2)
        assert shed == [lapsed]
        assert len(batcher) == 1
        assert not batcher.has_deadlines
        assert batcher.stats.shed == 1
        # Sweep with no deadline-carrying requests is a cheap no-op.
        assert batcher.shed_expired(now=1.0) == []

    def test_expired_request_resolves_with_deadline_error(self):
        # max_wait_s far beyond the deadline: the flusher's shed sweep,
        # not a batch flush, must resolve the future.
        policy = BatchPolicy(max_batch=64, max_wait_s=0.5)
        with DynamicsService(policy, n_shards=1) as svc:
            future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                deadline_s=1e-3)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5.0)
            _wait_until(lambda: svc.stats()["shed"] >= 1, what="shed count")

    def test_dispatch_time_shed(self):
        with DynamicsService(n_shards=1) as svc:
            lapsed = _request(deadline_s=1e-4)
            lapsed.arrival_s = time.monotonic() - 1.0
            live = _request()
            assert svc._shed_batch([lapsed, live]) == [live]
            with pytest.raises(DeadlineExceededError):
                lapsed.future.result(timeout=0)


class TestRetries:
    def test_transient_fault_retried_to_success(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=1e-4)
        with DynamicsService(n_shards=1, retry=policy) as svc:
            with injected(FaultSpec("shard.execute", max_faults=1),
                          seed=11) as inj:
                future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                    urgent=True)
                result = future.result(timeout=10.0)
            assert result.value.shape == (7, 7)
            assert inj.stats()["shard.execute"]["fired"] == 1
            stats = svc.stats()
            assert stats["retries"] >= 1
            assert stats["retried_requests"] >= 1

    def test_nonretryable_singleton_fails_with_context(self):
        with DynamicsService(n_shards=1) as svc:
            with injected(FaultSpec("shard.execute", retryable=False),
                          seed=0):
                future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                    urgent=True)
                with pytest.raises(BatchExecutionError) as err:
                    future.result(timeout=10.0)
            e = err.value
            assert e.robot == "iiwa"
            assert e.function == "M"
            assert e.batch_size == 1
            assert e.shard == 0
            assert e.attempts == 1
            assert isinstance(e.__cause__, InjectedFault)

    def test_retry_exhaustion_fails_terminally(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=1e-4)
        with DynamicsService(n_shards=1, retry=policy,
                             breaker_threshold=100) as svc:
            with injected(FaultSpec("shard.execute"), seed=0):
                future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                    urgent=True)
                with pytest.raises(BatchExecutionError) as err:
                    future.result(timeout=10.0)
            assert err.value.attempts == 2


class TestPoisonIsolation:
    def test_bad_request_isolated_from_batchmates(self):
        with DynamicsService(n_shards=1) as svc:
            # Malformed on purpose (wrong q width) — built directly to
            # bypass submit's validation, the way a corrupted payload or
            # a validator gap would reach execution.
            bad = ServeRequest(robot="iiwa", function=RBDFunction.M,
                               q=np.zeros(3))
            good = _request()
            for r in (bad, good):
                r.arrival_s = time.monotonic()
                svc._track(r)
            svc._dispatch([bad, good], chained=False)
            assert good.future.result(timeout=10.0).value.shape == (7, 7)
            with pytest.raises(BatchExecutionError) as err:
                bad.future.result(timeout=10.0)
            assert isinstance(err.value.__cause__, ValueError)
            assert err.value.batch_size == 1    # failed alone, post-bisect
            assert svc.stats()["poison_isolations"] >= 1


class TestCircuitBreaker:
    def test_breaker_opens_and_probe_recloses(self):
        with DynamicsService(n_shards=2, retry=RetryPolicy(backoff_s=1e-4),
                             breaker_threshold=1,
                             breaker_cooldown_s=0.02) as svc:
            with injected(FaultSpec("shard.execute", max_faults=1),
                          seed=5):
                future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                    urgent=True)
                # The failure opens the first shard's breaker; the retry
                # re-places onto the healthy shard and succeeds.
                assert future.result(timeout=10.0).value.shape == (7, 7)
                assert svc.stats()["breaker_opens"] >= 1
                # Background probe closes the breaker after cooldown.
                _wait_until(
                    lambda: all(s.health == "healthy"
                                for s in svc.pool.shards),
                    what="breaker to re-close",
                )
            stats = svc.stats()
            assert stats["probes"] >= 1
            assert stats["probe_failures"] == 0
            # Quarantined-shard traffic still succeeded end to end.
            future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                urgent=True)
            assert future.result(timeout=10.0).value.shape == (7, 7)

    def test_placement_skips_open_breaker(self):
        with DynamicsService(n_shards=2, breaker_threshold=1,
                             breaker_cooldown_s=60.0) as svc:
            svc.pool.shards[0].record_failure(threshold=1, cooldown_s=60.0,
                                              now=time.monotonic())
            assert svc.pool.shards[0].health == "open"
            for _ in range(4):
                f = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                               urgent=True)
                f.result(timeout=10.0)
            assert svc.pool.shards[0].dispatched_batches == 0
            assert svc.pool.shards[1].dispatched_batches >= 4
            events = svc.pool.placement_events()
            assert all(e["shard"] == 1 for e in events)
            assert events[-1]["health"][0] == "open"

    def test_drain_and_restart(self):
        with DynamicsService(n_shards=2) as svc:
            svc.pool.drain(0)
            assert svc.pool.shards[0].health == "draining"
            for _ in range(4):
                svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                           urgent=True).result(timeout=10.0)
            assert svc.pool.shards[0].dispatched_batches == 0
            svc.pool.restart(0)
            assert svc.pool.shards[0].health == "healthy"
            for _ in range(2):
                svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                           urgent=True).result(timeout=10.0)
            assert svc.pool.shards[0].dispatched_batches >= 1


class _BrittleEngine(LoopEngine):
    """Raises a capability error on every batch — degradation bait."""

    name = "brittle"

    def m_batch(self, model, q):
        raise BackendCapabilityError("brittle engine cannot serve M")


class TestEngineDegradation:
    def test_capability_error_degrades_shard_and_rerurns(self):
        register_engine("brittle", _BrittleEngine)
        with DynamicsService(n_shards=1, engine="brittle") as svc:
            future = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                urgent=True)
            result = future.result(timeout=10.0)
            assert result.value.shape == (7, 7)
            # Unknown engines degrade to "compiled"; the shard records it.
            assert svc.pool.shards[0].engine_name == "compiled"
            assert svc.stats()["engine_degradations"] == 1

    def test_loop_engine_is_terminal(self):
        with DynamicsService(n_shards=1, engine="loop") as svc:
            assert svc._degrade_shard(svc.pool.shards[0]) is False

    def test_compiled_degrades_to_loop(self, monkeypatch):
        """The chain's last step: a compiled shard whose kernels raise a
        capability error serves the batch on loop (which is terminal,
        see above)."""
        def unsupported(self, model, q):
            raise BackendCapabilityError("compiled plans unavailable")

        monkeypatch.setattr(CompiledEngine, "m_batch", unsupported)
        q = np.linspace(-0.5, 0.5, 7)
        want = LoopEngine().m_batch(load_robot("iiwa"), q[None])[0]
        with DynamicsService(n_shards=1, engine="compiled") as svc:
            shard = svc.pool.shards[0]
            result = svc.submit("iiwa", RBDFunction.M, q,
                                urgent=True).result(timeout=10.0)
            np.testing.assert_allclose(result.value, want,
                                       rtol=1e-10, atol=1e-10)
            assert result.engine == "loop"
            assert shard.engine_name == "loop"
            assert svc.stats()["engine_degradations"] == 1

    def test_jit_without_backend_degrades_to_process(self, monkeypatch):
        """A jit shard whose trace backend is missing (jax-less host)
        serves the batch anyway: jit -> process via the chain."""
        from repro.dynamics.jit import JitEngine

        def no_backend(self):
            raise BackendCapabilityError(
                "the jit engine needs a trace-compiling backend"
            )

        monkeypatch.setattr(JitEngine, "_resolve_backend", no_backend)
        with DynamicsService(n_shards=1, engine=JitEngine()) as svc:
            assert svc.pool.shards[0].engine_name == "jit"
            result = svc.submit("iiwa", RBDFunction.M, np.zeros(7),
                                urgent=True).result(timeout=10.0)
            assert result.value.shape == (7, 7)
            assert svc.pool.shards[0].engine_name == "process"
            assert svc.stats()["engine_degradations"] == 1


class TestShutdownSemantics:
    def test_close_resolves_stranded_futures(self):
        svc = DynamicsService(n_shards=1)
        stranded = _request()
        svc._track(stranded)
        svc.close()
        with pytest.raises(ServeError, match="service shut down"):
            stranded.future.result(timeout=0)

    def test_close_drains_pending_work_normally(self):
        policy = BatchPolicy(max_batch=64, max_wait_s=30.0)
        svc = DynamicsService(policy, n_shards=1)
        futures = [svc.submit("iiwa", RBDFunction.M, np.zeros(7))
                   for _ in range(3)]
        svc.close()
        for f in futures:
            assert f.result(timeout=10.0).value.shape == (7, 7)

    def test_concurrent_close_is_idempotent(self):
        """Racing close() calls all block until teardown completes.

        Regression: a second closer used to return immediately on the
        already-set flag while the first was still mid-teardown, so
        callers could observe a "closed" service with live shards and
        unresolved futures."""
        svc = DynamicsService(n_shards=2)
        futures = [svc.submit("iiwa", RBDFunction.M, np.zeros(7))
                   for _ in range(8)]
        errors = []

        def closer():
            try:
                svc.close()
                # Any returned close() must see finished teardown.
                assert all(f.done() for f in futures)
            except Exception as exc:           # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        for f in futures:
            f.result(timeout=0)                # drained, not stranded
        svc.close()                            # still safe afterwards


class TestWorkerDeath:
    def test_engine_detects_and_recovers_from_worker_kill(self):
        engine = ProcessEngine(n_workers=2, min_chunk=1)
        try:
            model = load_robot("iiwa")
            q = np.zeros((4, model.nv))
            states = BatchStates(q, q.copy())
            with injected(FaultSpec("process.worker", kind="worker_kill",
                                    max_faults=1), seed=0):
                with pytest.raises(RuntimeError, match="lost its workers"):
                    batch_evaluate(model, RBDFunction.M, states,
                                   engine=engine)
            # The pool restarts lazily on the next call.
            out = batch_evaluate(model, RBDFunction.M, states, engine=engine)
            assert len(out) == 4
            assert all(m.shape == (model.nv, model.nv) for m in out)
            assert engine.started
        finally:
            engine.shutdown()

    def test_worker_death_under_serve_retries_to_success(self):
        engine = ProcessEngine(n_workers=2, min_chunk=1)
        try:
            policy = BatchPolicy(max_batch=4, max_wait_s=10.0)
            with DynamicsService(policy, n_shards=1, engine=engine,
                                 retry=RetryPolicy(backoff_s=1e-4)) as svc:
                with injected(FaultSpec("process.worker",
                                        kind="worker_kill", max_faults=1),
                              seed=0):
                    futures = [
                        svc.submit("iiwa", RBDFunction.M, np.zeros(7))
                        for _ in range(4)
                    ]
                    for f in futures:
                        assert f.result(timeout=30.0).value.shape == (7, 7)
                assert svc.stats()["retries"] >= 1
        finally:
            engine.shutdown()
