"""The formal node/analyzer API boundary: the :class:`NodeRPC` protocol.

Everything above :mod:`repro.chain` — the pipeline, the logic finder, the
monitor, the parallel sweep engine — consumes the chain through this one
structural interface instead of a concrete node class.  Three conformers
ship with the repository, layered like an onion:

* :class:`~repro.chain.node.ArchiveNode` — the ground-truth archive view;
* :class:`~repro.chain.faults.FaultyNode` — deterministic fault injection
  *around* any conformer (chaos testing);
* :class:`~repro.chain.resilient.ResilientNode` — retries, backoff and
  circuit breaking *around* any conformer (production hardening).

Because the protocol is structural (:class:`typing.Protocol`), wrappers
nest freely — ``ResilientNode(FaultyNode(ArchiveNode(chain)))`` is itself
a ``NodeRPC`` — and new backends (a real JSON-RPC client, a read-through
cache) only have to match the surface, not inherit from anything.  The
shared conformance suite in ``tests/chain/test_node_api.py`` checks every
declared conformer behaviorally, so the three classes cannot drift apart
the way three informally duplicated signatures can.

The protocol is ``@runtime_checkable``: ``isinstance(node, NodeRPC)``
verifies member *presence* (the conformance tests cover semantics), which
is how :class:`~repro.core.pipeline.Proxion` and the sweep engine validate
injected nodes without importing any concrete class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # imports only needed by type checkers, not at runtime
    from repro.chain.blockchain import Blockchain, Receipt
    from repro.evm.interpreter import CallResult
    from repro.evm.tracer import LogEvent
    from repro.obs.registry import MetricsRegistry


@runtime_checkable
class NodeRPC(Protocol):
    """Structural type of every archive-node implementation.

    The seven core members mirror the JSON-RPC surface the paper's tool
    runs against (``eth_getCode``, the account ``codeHash``,
    ``eth_getStorageAt``, ``eth_call``, liveness, transaction counting)
    plus the ``metrics`` registry every node meters itself through; the
    remaining members are the archive extensions (history, logs, block
    metadata) the §5 logic recovery and the monitor rely on.
    """

    #: Every conformer meters its RPCs through a registry of this shape.
    metrics: "MetricsRegistry"

    # --------------------------------------------------------- core surface
    def get_code(self, address: bytes,
                 block_number: int | None = None) -> bytes:
        """``eth_getCode`` — runtime bytecode, optionally at a height."""
        ...

    def get_code_hash(self, address: bytes,
                      block_number: int | None = None) -> bytes:
        """The account ``codeHash``: Keccak-256 of the code, recorded once
        when the code was stored (``EMPTY_CODE_HASH`` without code).  The
        key every bytecode-keyed cache, table and shard uses."""
        ...

    def get_storage_at(self, address: bytes, slot: int,
                       block_number: int | None = None) -> int:
        """``eth_getStorageAt`` — one storage word, optionally at a height."""
        ...

    def call(self, to: bytes, data: bytes = b"",
             sender: bytes = b"\x00" * 20,
             block_number: int | None = None,
             **kwargs) -> "CallResult":
        """``eth_call`` — emulate a message call (no state commitment)."""
        ...

    def is_alive(self, address: bytes) -> bool:
        """Deployed and not self-destructed (the paper's §3.1 filter)."""
        ...

    def get_transaction_count(self, address: bytes) -> int:
        """``eth_getTransactionCount``-shaped: past transactions *to* it."""
        ...

    # --------------------------------------------------- archive extensions
    def get_balance(self, address: bytes) -> int:
        ...

    def get_logs(self, address: bytes | None = None,
                 topic: int | None = None,
                 from_block: int | None = None,
                 to_block: int | None = None) -> list[tuple[int, "LogEvent"]]:
        ...

    def transactions_of(self, address: bytes) -> list["Receipt"]:
        ...

    def has_transactions(self, address: bytes) -> bool:
        ...

    def year_of(self, block_number: int) -> int:
        ...

    @property
    def chain(self) -> "Blockchain":
        """The underlying chain (emulator state + block contexts)."""
        ...

    @property
    def latest_block_number(self) -> int:
        ...

    @property
    def genesis_block_number(self) -> int:
        ...


#: The classes the repository declares (and tests) as conformers.
DECLARED_CONFORMERS = (
    "repro.chain.node.ArchiveNode",
    "repro.chain.resilient.ResilientNode",
    "repro.chain.faults.FaultyNode",
    "repro.chain.failover.FailoverNode",
)


__all__ = ["NodeRPC", "DECLARED_CONFORMERS"]
