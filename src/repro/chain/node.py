"""Archive-node RPC facade.

ProxioN consumes the chain exclusively through this JSON-RPC-shaped surface
(``eth_getCode``, ``eth_getStorageAt`` at a block height, ``eth_call``), the
same way the paper runs against a locally established Ethereum archive node
(§7.1).  Every call is metered through the node's
:class:`~repro.obs.registry.MetricsRegistry` — a ``rpc.calls{method=...}``
counter plus a ``rpc.latency_seconds{method=...}`` histogram — which is how
the §6.1 result ("26 getStorageAt calls per proxy on average, versus
millions of blocks") is measured.  :class:`ApiCallCounter` survives as a
compatibility shim over those registry counters.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

from repro.chain.blockchain import Blockchain, Receipt
from repro.evm.interpreter import CallResult
from repro.evm.tracer import LogEvent
from repro.obs import provenance
from repro.obs.provenance import NULL_TRAIL, EvidenceTrail
from repro.obs.registry import Counter, Histogram, MetricsRegistry
from repro.obs.spans import clock


class ApiCallCounter:
    """Per-method RPC tallies — a compatibility view over the registry.

    Historically a standalone dict-of-counts; it is now backed by
    ``rpc.calls{method=...}`` counters in a :class:`MetricsRegistry`, so
    the legacy surface (``bump``/``get``/``total``/``reset``/``counts``)
    and the observability exporters always agree.  Constructing it without
    a registry gives it a private one, preserving standalone use.
    """

    __slots__ = ("registry", "_cache")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._cache: dict[str, Counter] = {}

    def _counter(self, method: str) -> Counter:
        counter = self._cache.get(method)
        if counter is None:
            counter = self.registry.counter("rpc.calls", method=method)
            self._cache[method] = counter
        return counter

    def bump(self, method: str) -> None:
        self._counter(method).inc()

    def get(self, method: str) -> int:
        return int(self._counter(method).value)

    def total(self) -> int:
        return int(self.registry.counter_total("rpc.calls"))

    def reset(self) -> None:
        for counter in self.registry.counters_named("rpc.calls").values():
            counter.value = 0

    @property
    def counts(self) -> dict[str, int]:
        """The legacy ``{method: count}`` dict (non-zero methods only)."""
        return {dict(labels).get("method", ""): int(counter.value)
                for labels, counter
                in self.registry.counters_named("rpc.calls").items()
                if counter.value}


class ArchiveNode:
    """Read-only archive view over a :class:`Blockchain`."""

    #: Default per-``eth_call`` instruction ceiling.  Pathological bytecode
    #: (unbounded loops, deep re-entrancy) must terminate as a recorded
    #: emulation failure instead of hanging a sweep; 2M instructions is far
    #: beyond any legitimate proxy dispatch.
    DEFAULT_CALL_INSTRUCTION_BUDGET = 2_000_000

    def __init__(self, chain: Blockchain,
                 metrics: MetricsRegistry | None = None,
                 call_instruction_budget: int | None = None) -> None:
        self._chain = chain
        # Per-node registry by default: sweeps stay isolated from each
        # other; pass an explicit registry (or NULL_REGISTRY) to share or
        # disable collection.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.api_calls = ApiCallCounter(self.metrics)
        self._latency: dict[str, Histogram] = {}
        self.call_instruction_budget = (
            call_instruction_budget if call_instruction_budget is not None
            else self.DEFAULT_CALL_INSTRUCTION_BUDGET)
        # Evidence attribution (repro.obs.provenance): while a trail is
        # attached via ``witness_reads``, every archive read is recorded
        # as an ``rpc.read`` observation.  NULL_TRAIL keeps the default
        # path at one ``enabled`` check per call.
        self._witness: EvidenceTrail = NULL_TRAIL

    @contextmanager
    def witness_reads(self, trail: EvidenceTrail):
        """Attribute every read inside the block to ``trail``."""
        previous = self._witness
        self._witness = trail
        try:
            yield
        finally:
            self._witness = previous

    def _observe(self, method: str, start: float) -> None:
        histogram = self._latency.get(method)
        if histogram is None:
            histogram = self.metrics.histogram("rpc.latency_seconds",
                                               method=method)
            self._latency[method] = histogram
        histogram.observe(clock() - start)

    @property
    def chain(self) -> Blockchain:
        """The underlying simulated chain (for emulator state access)."""
        return self._chain

    # ------------------------------------------------------------- chain info
    @property
    def latest_block_number(self) -> int:
        return self._chain.latest_block_number

    @property
    def genesis_block_number(self) -> int:
        return 0

    def year_of(self, block_number: int) -> int:
        return self._chain.year_of(block_number)

    # ----------------------------------------------------------------- reads
    def get_code(self, address: bytes, block_number: int | None = None) -> bytes:
        self.api_calls.bump("eth_getCode")
        start = clock()
        if block_number is None:
            code = self._chain.state.get_code(address)
        else:
            code = self._chain.state.get_code_at(address, block_number)
        self._observe("eth_getCode", start)
        if self._witness.enabled:
            self._witness.note(provenance.RPC_READ, method="eth_getCode",
                               address="0x" + address.hex(),
                               block=block_number, size=len(code))
        return code

    def get_code_hash(self, address: bytes,
                      block_number: int | None = None) -> bytes:
        self.api_calls.bump("eth_getCodeHash")
        start = clock()
        code_hash = self._chain.state.get_code_hash(address, block_number)
        self._observe("eth_getCodeHash", start)
        return code_hash

    def get_storage_at(self, address: bytes, slot: int,
                       block_number: int | None = None) -> int:
        self.api_calls.bump("eth_getStorageAt")
        start = clock()
        if block_number is None:
            word = self._chain.state.get_storage(address, slot)
        else:
            word = self._chain.state.get_storage_at(address, slot, block_number)
        self._observe("eth_getStorageAt", start)
        if self._witness.enabled:
            self._witness.note(provenance.RPC_READ,
                               method="eth_getStorageAt",
                               address="0x" + address.hex(),
                               slot=hex(slot), block=block_number,
                               value=hex(word))
        return word

    def get_balance(self, address: bytes) -> int:
        self.api_calls.bump("eth_getBalance")
        return self._chain.state.get_balance(address)

    def call(self, to: bytes, data: bytes = b"",
             sender: bytes = b"\x00" * 20,
             block_number: int | None = None,
             max_instructions: int | None = None) -> CallResult:
        """eth_call — against current state, or a *historical* block.

        Historical calls run on an overlay over the archive's frozen view
        of that block (code and storage at height; balances are not
        archived and read as zero).

        Every call executes under an instruction ceiling
        (``max_instructions`` or the node's ``call_instruction_budget``):
        runaway bytecode terminates with an ``ExecutionTimeout`` result —
        recorded under ``rpc.emulation_failures{cause=...}`` — instead of
        stalling the sweep.
        """
        self.api_calls.bump("eth_call")
        start = clock()
        config = self._capped_config(max_instructions)
        if block_number is None:
            result = self._chain.call(to, data, sender=sender, config=config)
            self._record_call_outcome(result)
            self._observe("eth_call", start)
            return result
        from repro.evm.environment import TransactionContext
        from repro.evm.interpreter import EVM, Message
        from repro.evm.state import OverlayState

        view = self._chain.state.view_at(block_number)
        evm = EVM(
            OverlayState(view),
            block=self._chain.block_context(block_number),
            tx=TransactionContext(origin=sender),
            config=config,
        )
        result = evm.execute(Message(sender=sender, to=to, data=data))
        self._record_call_outcome(result)
        self._observe("eth_call", start)
        return result

    def _capped_config(self, max_instructions: int | None):
        """The chain's execution config with the call ceiling applied."""
        budget = (max_instructions if max_instructions is not None
                  else self.call_instruction_budget)
        config = self._chain.config
        if config.instruction_budget <= budget:
            return config
        return dataclasses.replace(config, instruction_budget=budget)

    def _record_call_outcome(self, result: CallResult) -> None:
        """§8.1-style cause accounting for failed ``eth_call`` executions.

        Reverts are clean negatives (the contract chose to reject); every
        other error — including a tripped instruction ceiling — counts as
        an emulation failure under its root cause.
        """
        if result.success or result.error is None or result.error == "revert":
            return
        cause = result.error.split(":", 1)[0].strip() or "unknown"
        self.metrics.counter("rpc.emulation_failures", method="eth_call",
                             cause=cause).inc()

    def is_alive(self, address: bytes) -> bool:
        """Alive = deployed and not self-destructed (the paper's §3.1 filter)."""
        return bool(self._chain.state.get_code(address))

    # ------------------------------------------------------------------ logs
    def get_logs(self, address: bytes | None = None,
                 topic: int | None = None,
                 from_block: int | None = None,
                 to_block: int | None = None) -> list[tuple[int, "LogEvent"]]:
        """eth_getLogs: ``(block_number, event)`` pairs matching the filter."""
        self.api_calls.bump("eth_getLogs")
        start = clock()
        matches: list[tuple[int, LogEvent]] = []
        for block in self._chain.blocks:
            if from_block is not None and block.number < from_block:
                continue
            if to_block is not None and block.number > to_block:
                continue
            for receipt in block.receipts:
                for event in receipt.logs:
                    if address is not None and event.emitter != address:
                        continue
                    if topic is not None and (not event.topics
                                              or event.topics[0] != topic):
                        continue
                    matches.append((block.number, event))
        self._observe("eth_getLogs", start)
        return matches

    # ----------------------------------------------- transaction-history view
    def transactions_of(self, address: bytes) -> list[Receipt]:
        self.api_calls.bump("eth_getTransactionsByAddress")
        return self._chain.transactions_of(address)

    def has_transactions(self, address: bytes) -> bool:
        self.api_calls.bump("eth_getTransactionCountByAddress")
        return self._chain.has_transactions(address)

    def get_transaction_count(self, address: bytes) -> int:
        """Number of past transactions sent *to* ``address``."""
        self.api_calls.bump("eth_getTransactionCount")
        return len(self._chain.transactions_of(address))
