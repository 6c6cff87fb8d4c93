"""Resilient archive-node wrapper: retries, backoff, circuit breaking.

The production counterpart of :mod:`repro.chain.faults`: wherever that
module injects failures, :class:`ResilientNode` absorbs them.  Three
mechanisms, each independently testable:

* **Capped exponential backoff with seeded full jitter** — every transient
  RPC failure waits ``uniform(0, min(cap, base · mult^attempt))`` before
  retrying, drawn from a ``random.Random(seed)`` so a given node instance
  produces a *reproducible* backoff trace (the chaos tests assert this).
* **Per-call deadline budgets** — a call may not consume more than
  ``RetryPolicy.deadline_s`` of combined attempt + backoff time, nor more
  than ``max_attempts`` tries; exhausting either raises
  :class:`~repro.errors.DeadlineExceeded` chaining the last failure.
* **Per-method circuit breaker** — after ``failure_threshold`` consecutive
  failures a method's circuit opens and calls fail fast with
  :class:`~repro.errors.CircuitOpen` (no RPC issued) until ``cooldown_s``
  has passed, then a half-open probe either closes it again or re-opens it.

``sleep`` is injectable: the default ``time.sleep`` really waits, while
tests and the bench suite pass a no-op and rely on the wrapper's *virtual*
clock (wall clock + accumulated skipped sleep), which also drives breaker
cooldowns so open→half-open transitions happen deterministically.

Everything is metered in the node's registry: ``resilience.retries``,
``resilience.backoff_seconds``, ``resilience.deadline_exceeded``,
``resilience.circuit_open_rejections`` (all ``{method=...}``) and
``resilience.breaker_transitions{method=...,to=...}``.  When an
:class:`~repro.obs.events.EventRecorder` is wired, the *narrative*
moments also land in the flight recorder: every breaker state change
(``breaker.open`` / ``breaker.half-open`` / ``breaker.close``) and every
retry-budget exhaustion (``retry.exhausted``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.errors import CircuitOpen, DeadlineExceeded, TransientRpcError
from repro.obs import events as events_module
from repro.obs.events import NULL_RECORDER
from repro.obs.spans import clock

#: Breaker states (also the value of ``resilience.breaker_state`` gauges).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_VALUE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: Breaker state → journal event kind (``repro.events/1`` taxonomy).
_STATE_EVENT = {
    CLOSED: events_module.BREAKER_CLOSE,
    OPEN: events_module.BREAKER_OPEN,
    HALF_OPEN: events_module.BREAKER_HALF_OPEN,
}


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Backoff + budget knobs of one :class:`ResilientNode`."""

    max_attempts: int = 6
    base_delay_s: float = 0.02
    max_delay_s: float = 1.0
    multiplier: float = 2.0
    deadline_s: float = 30.0

    def backoff_ceiling(self, attempt: int) -> float:
        """The jitter window's upper bound after ``attempt`` failures."""
        return min(self.max_delay_s,
                   self.base_delay_s * self.multiplier ** attempt)


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Circuit-breaker knobs (one breaker per RPC method)."""

    failure_threshold: int = 5
    cooldown_s: float = 1.0
    half_open_probes: int = 1


class CircuitBreaker:
    """One method's breaker: closed → open → half-open → closed.

    ``on_transition(old, new)`` fires on every state change (wired to the
    ``resilience.breaker_transitions`` counter by :class:`ResilientNode`).
    Time is supplied by the caller, so virtual clocks work.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 on_transition=None) -> None:
        self.config = config or BreakerConfig()
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self._probes_in_flight = 0
        self._on_transition = on_transition

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old, self.state = self.state, new_state
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    def retry_at(self) -> float:
        return self.opened_at + self.config.cooldown_s

    def admit(self, now: float) -> bool:
        """Whether a call may proceed; may move open → half-open."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now < self.retry_at():
                return False
            self._transition(HALF_OPEN)
            self._probes_in_flight = 0
        # Half-open: admit a bounded number of probes.
        if self._probes_in_flight >= self.config.half_open_probes:
            return False
        self._probes_in_flight += 1
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self._transition(CLOSED)

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            # A failed probe re-opens immediately, restarting the cooldown.
            self.opened_at = now
            self.consecutive_failures += 1
            self._transition(OPEN)
            return
        self.consecutive_failures += 1
        if (self.state == CLOSED
                and self.consecutive_failures
                >= self.config.failure_threshold):
            self.opened_at = now
            self._transition(OPEN)


class ResilientNode:
    """Retry/backoff/breaker wrapper over any ArchiveNode-shaped object.

    Stack it outside a :class:`~repro.chain.faults.FaultyNode` to prove a
    sweep survives a fault plan, or outside a real RPC adapter in
    deployment.  The wrapped node's results pass through untouched — only
    failures are absorbed — which is what makes chaos equivalence
    byte-exact.
    """

    def __init__(self, node, policy: RetryPolicy | None = None,
                 breaker: BreakerConfig | None = None,
                 seed: int = 0, sleep=time.sleep, metrics=None,
                 events=None) -> None:
        self._node = node
        self.policy = policy or RetryPolicy()
        self.breaker_config = breaker or BreakerConfig()
        self.metrics = metrics if metrics is not None else node.metrics
        self.events = events if events is not None else NULL_RECORDER
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._virtual_elapsed = 0.0
        self._breakers: dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------ passthrough
    @property
    def chain(self):
        return self._node.chain

    @property
    def api_calls(self):
        return self._node.api_calls

    @property
    def latest_block_number(self) -> int:
        return self._node.latest_block_number

    @property
    def genesis_block_number(self) -> int:
        return self._node.genesis_block_number

    def year_of(self, block_number: int) -> int:
        return self._node.year_of(block_number)

    def witness_reads(self, trail):
        """Evidence attribution passes through to the wrapped node, so an
        audited sweep records the reads that actually reached the archive
        (retries included)."""
        return self._node.witness_reads(trail)

    # --------------------------------------------------------------- plumbing
    def _now(self) -> float:
        """Wall clock plus every skipped (virtual) backoff second."""
        return clock() + self._virtual_elapsed

    def _wait(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if self._sleep is time.sleep:
            self._sleep(seconds)
        else:
            # Injected sleeps are treated as virtual: time advances on the
            # wrapper's clock without stalling the process.
            self._virtual_elapsed += seconds
            if self._sleep is not None:
                self._sleep(seconds)

    def breaker_for(self, method: str) -> CircuitBreaker:
        breaker = self._breakers.get(method)
        if breaker is None:
            gauge = self.metrics.gauge("resilience.breaker_state",
                                       method=method)

            def on_transition(old: str, new: str) -> None:
                self.metrics.counter("resilience.breaker_transitions",
                                     method=method, to=new).inc()
                gauge.set(_STATE_VALUE[new])
                self.events.emit(_STATE_EVENT[new], method=method,
                                 previous=old)

            breaker = CircuitBreaker(self.breaker_config, on_transition)
            self._breakers[method] = breaker
        return breaker

    def backoff_delays(self, attempts: int) -> list[float]:
        """The next ``attempts`` jittered delays (consumes RNG state).

        Exposed for determinism tests: two nodes built with the same seed
        produce identical delay sequences.
        """
        return [self._rng.uniform(0, self.policy.backoff_ceiling(attempt))
                for attempt in range(attempts)]

    def _invoke(self, method: str, func, address: bytes | None, *args,
                **kwargs):
        breaker = self.breaker_for(method)
        started = self._now()
        attempt = 0
        while True:
            if not breaker.admit(self._now()):
                self.metrics.counter("resilience.circuit_open_rejections",
                                     method=method).inc()
                raise CircuitOpen(
                    f"circuit for {method} is open "
                    f"(retry at t={breaker.retry_at():.3f})",
                    method=method, retry_at=breaker.retry_at())
            try:
                result = func(*args, **kwargs)
            except TransientRpcError as error:
                now = self._now()
                breaker.record_failure(now)
                attempt += 1
                elapsed = now - started
                delay = self._rng.uniform(
                    0, self.policy.backoff_ceiling(attempt - 1))
                if (attempt >= self.policy.max_attempts
                        or elapsed + delay > self.policy.deadline_s):
                    self.metrics.counter("resilience.deadline_exceeded",
                                         method=method).inc()
                    self.events.emit(events_module.RETRY_EXHAUSTED,
                                     method=method, attempts=attempt,
                                     elapsed_s=round(elapsed, 6))
                    raise DeadlineExceeded(
                        f"{method} failed after {attempt} attempt(s) "
                        f"/ {elapsed:.3f}s: {error}",
                        method=method, address=address,
                        attempts=attempt, elapsed_s=elapsed) from error
                self.metrics.counter("resilience.retries",
                                     method=method).inc()
                self.metrics.counter("resilience.backoff_seconds",
                                     method=method).inc(delay)
                self._wait(delay)
                continue
            breaker.record_success(self._now())
            return result

    # ----------------------------------------------------------------- reads
    def get_code(self, address: bytes, block_number: int | None = None) -> bytes:
        return self._invoke("eth_getCode", self._node.get_code, address,
                            address, block_number)

    def get_code_hash(self, address: bytes,
                      block_number: int | None = None) -> bytes:
        return self._invoke("eth_getCodeHash", self._node.get_code_hash,
                            address, address, block_number)

    def get_storage_at(self, address: bytes, slot: int,
                       block_number: int | None = None) -> int:
        return self._invoke("eth_getStorageAt", self._node.get_storage_at,
                            address, address, slot, block_number)

    def get_balance(self, address: bytes) -> int:
        return self._invoke("eth_getBalance", self._node.get_balance,
                            address, address)

    def call(self, to: bytes, data: bytes = b"",
             sender: bytes = b"\x00" * 20,
             block_number: int | None = None, **kwargs):
        return self._invoke("eth_call", self._node.call, to,
                            to, data, sender=sender,
                            block_number=block_number, **kwargs)

    def is_alive(self, address: bytes) -> bool:
        return self._invoke("eth_getCode", self._node.is_alive, address,
                            address)

    def get_logs(self, address: bytes | None = None,
                 topic: int | None = None,
                 from_block: int | None = None,
                 to_block: int | None = None):
        return self._invoke("eth_getLogs", self._node.get_logs, address,
                            address, topic, from_block, to_block)

    def transactions_of(self, address: bytes):
        return self._invoke("eth_getTransactionsByAddress",
                            self._node.transactions_of, address, address)

    def has_transactions(self, address: bytes) -> bool:
        return self._invoke("eth_getTransactionCountByAddress",
                            self._node.has_transactions, address, address)

    def get_transaction_count(self, address: bytes) -> int:
        return self._invoke("eth_getTransactionCount",
                            self._node.get_transaction_count, address,
                            address)


__all__ = [
    "BreakerConfig",
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "ResilientNode",
    "RetryPolicy",
]
