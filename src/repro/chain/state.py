"""World state with full per-block history (the archive-node substrate).

Besides the live account state the :class:`WorldState` keeps, for every
storage slot and code blob it has ever held, the list of ``(block, value)``
change points.  That is exactly what a mainnet *archive node* provides and
what ProxioN's Algorithm 1 queries through ``getStorageAt`` at arbitrary
block heights.

Reads at a historical height binary-search the change list, so the simulated
archive node answers in O(log changes) regardless of chain length.

Like Ethereum's account ``codeHash`` field, each code blob's Keccak-256 is
computed once, when :meth:`WorldState.set_code` stores it, and served by
:meth:`WorldState.get_code_hash` at any height.  Everything that keys work
by bytecode (the §6.1 dedup caches, source propagation, the store, the
``codehash`` shard strategy) reads that recorded value instead of
re-hashing the code.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.evm.state import EMPTY_CODE_HASH
from repro.utils.keccak import keccak256


@dataclass(slots=True)
class _History:
    """Change points of a single value across block heights."""

    blocks: list[int] = field(default_factory=list)
    values: list[object] = field(default_factory=list)

    def record(self, block: int, value: object) -> None:
        if self.blocks and self.blocks[-1] == block:
            self.values[-1] = value
            return
        self.blocks.append(block)
        self.values.append(value)

    def at(self, block: int, default: object) -> object:
        index = bisect_right(self.blocks, block) - 1
        if index < 0:
            return default
        return self.values[index]


class WorldState:
    """Live account state + archive history, used as the EVM's backend.

    All mutations are stamped with ``current_block`` (set by the blockchain
    before executing each block's transactions), building the historical
    record as a side effect of normal execution.
    """

    def __init__(self) -> None:
        self.current_block = 0
        self._code: dict[bytes, bytes] = {}
        self._storage: dict[tuple[bytes, int], int] = {}
        self._balance: dict[bytes, int] = {}
        self._nonce: dict[bytes, int] = {}
        self._destroyed: set[bytes] = set()
        self._storage_history: dict[tuple[bytes, int], _History] = {}
        self._code_history: dict[bytes, _History] = {}
        # Content-keyed (code bytes -> digest), so snapshot/revert/fork need
        # not touch it: a reverted deployment leaves a harmless entry.
        self._code_hashes: dict[bytes, bytes] = {b"": EMPTY_CODE_HASH}

    # ------------------------------------------------------ StateBackend API
    def get_code(self, address: bytes) -> bytes:
        return self._code.get(address, b"")

    def set_code(self, address: bytes, code: bytes) -> None:
        if code not in self._code_hashes:
            self._code_hashes[code] = keccak256(code)
        self._code[address] = code
        self._destroyed.discard(address)
        self._code_history.setdefault(address, _History()).record(
            self.current_block, code)

    def get_storage(self, address: bytes, slot: int) -> int:
        return self._storage.get((address, slot), 0)

    def set_storage(self, address: bytes, slot: int, value: int) -> None:
        key = (address, slot)
        if value:
            self._storage[key] = value
        else:
            self._storage.pop(key, None)
        self._storage_history.setdefault(key, _History()).record(
            self.current_block, value)

    def get_balance(self, address: bytes) -> int:
        return self._balance.get(address, 0)

    def set_balance(self, address: bytes, value: int) -> None:
        self._balance[address] = value

    def get_nonce(self, address: bytes) -> int:
        return self._nonce.get(address, 0)

    def set_nonce(self, address: bytes, value: int) -> None:
        self._nonce[address] = value

    def account_exists(self, address: bytes) -> bool:
        return (address in self._code or address in self._balance
                or address in self._nonce)

    def mark_destroyed(self, address: bytes) -> None:
        self._destroyed.add(address)
        self._code[address] = b""
        self._code_history.setdefault(address, _History()).record(
            self.current_block, b"")

    def is_destroyed(self, address: bytes) -> bool:
        return address in self._destroyed

    def snapshot(self) -> tuple:
        # Histories are monotone (appends only within the current block), so
        # the snapshot records list lengths instead of copying the archives.
        return (
            dict(self._code),
            dict(self._storage),
            dict(self._balance),
            dict(self._nonce),
            set(self._destroyed),
            {key: len(history.blocks)
             for key, history in self._storage_history.items()},
            {key: len(history.blocks)
             for key, history in self._code_history.items()},
        )

    def revert(self, snapshot: tuple) -> None:
        (code, storage, balance, nonce, destroyed,
         storage_lengths, code_lengths) = snapshot
        self._code = dict(code)
        self._storage = dict(storage)
        self._balance = dict(balance)
        self._nonce = dict(nonce)
        self._destroyed = set(destroyed)
        for key in list(self._storage_history):
            kept = storage_lengths.get(key, 0)
            history = self._storage_history[key]
            if kept == 0:
                del self._storage_history[key]
            else:
                del history.blocks[kept:]
                del history.values[kept:]
        for key in list(self._code_history):
            kept = code_lengths.get(key, 0)
            history = self._code_history[key]
            if kept == 0:
                del self._code_history[key]
            else:
                del history.blocks[kept:]
                del history.values[kept:]

    # ----------------------------------------------------------- archive API
    def get_storage_at(self, address: bytes, slot: int, block: int) -> int:
        """Storage slot value as of the end of ``block`` (archive read)."""
        history = self._storage_history.get((address, slot))
        if history is None:
            return 0
        return int(history.at(block, 0))  # type: ignore[arg-type]

    def get_code_at(self, address: bytes, block: int) -> bytes:
        """Deployed code as of the end of ``block`` (archive read)."""
        history = self._code_history.get(address)
        if history is None:
            return b""
        return bytes(history.at(block, b""))  # type: ignore[arg-type]

    def get_code_hash(self, address: bytes, block: int | None = None) -> bytes:
        """Keccak-256 of the code, live or as of ``block``; the empty-code
        hash for an address without code.  Recorded at :meth:`set_code`."""
        code = (self.get_code(address) if block is None
                else self.get_code_at(address, block))
        return self._code_hashes[code]

    def storage_change_blocks(self, address: bytes, slot: int) -> list[int]:
        """Blocks at which the slot value changed (ground truth for tests)."""
        history = self._storage_history.get((address, slot))
        return list(history.blocks) if history else []

    def view_at(self, block: int) -> "HistoricalStateView":
        """A read-only :class:`StateBackend` frozen at ``block``'s end."""
        return HistoricalStateView(self, block)


class HistoricalStateView:
    """Read-only state as of a past block (powers historical ``eth_call``).

    Storage and code come from the archive histories; balances and nonces
    are not archived (they are irrelevant to the paper's analyses) and read
    as zero.  Writes raise — wrap in an
    :class:`~repro.evm.state.OverlayState` to execute against history.
    """

    def __init__(self, world: WorldState, block: int) -> None:
        self._world = world
        self._block = block

    @property
    def block(self) -> int:
        return self._block

    def get_code(self, address: bytes) -> bytes:
        return self._world.get_code_at(address, self._block)

    def get_storage(self, address: bytes, slot: int) -> int:
        return self._world.get_storage_at(address, slot, self._block)

    def get_balance(self, address: bytes) -> int:
        return 0

    def get_nonce(self, address: bytes) -> int:
        return 0

    def account_exists(self, address: bytes) -> bool:
        return bool(self.get_code(address))

    # -- the read-only contract ---------------------------------------------
    def _refuse(self, *_args) -> None:
        raise TypeError("historical state views are read-only; wrap in an "
                        "OverlayState to execute against them")

    set_code = set_storage = set_balance = set_nonce = _refuse
    mark_destroyed = _refuse

    def snapshot(self) -> object:
        return None

    def revert(self, snapshot: object) -> None:
        del snapshot
