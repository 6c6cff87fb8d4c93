"""Storage-collision detection and exploit verification (§5.2).

Following CRUSH's pipeline, per contract we build a *storage profile* —
which byte ranges of which slots are read/written, with what inferred type
widths, and which slots gate access control:

* **source mode** — from the verified source's declared layout (Solidity
  packing rules applied to the declarations);
* **bytecode mode** — from symbolic execution of the runtime
  (:mod:`repro.core.symexec`), optionally augmented with the *live storage
  state* of the deployed proxy: a slot that already holds a value but is
  never written by the runtime code is a constructor-initialized, read-only
  slot — exactly CRUSH's class of sensitive slots.

A collision is a slot whose proxy-side and logic-side occupants disagree —
overlapping byte ranges of different widths/offsets, or identical ranges
with conflicting declared types.  Matching ranges with matching types are
*compatible* (this, not name equality, is what avoids USCHunt's
padding-variable false positives in Table 2).

A collision is *exploitable* when the proxy-side slot is sensitive (access
control) and the logic exposes an unguarded function that writes the
overlapping range.  Exploitability is then **verified** by synthesizing the
attacking transaction and executing it on an overlay of the real chain
state, checking that the sensitive bytes actually changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.explorer import ContractSource, SourceRegistry
from repro.core.symexec import (
    CONCRETE,
    SlotKey,
    SymbolicExecutor,
    SymbolicSummary,
)
from repro.evm.environment import BlockContext, ExecutionConfig, TransactionContext
from repro.evm.interpreter import EVM, Message
from repro.evm.state import OverlayState, StateBackend
from repro.evm.tracer import StorageTracer
from repro.lang.storage_layout import compute_layout
from repro.lang.types import MappingType, parse_type
from repro.obs import provenance
from repro.obs.provenance import NULL_TRAIL, EvidenceTrail

_SENSITIVE_NAME_HINTS = ("owner", "admin", "governor", "guardian", "operator")

ATTACKER = bytes.fromhex("a77ac3e7000000000000000000000000a77ac3e7")


@dataclass(frozen=True, slots=True)
class RangeUse:
    """One occupant of a slot: a byte range with optional type and context."""

    offset: int
    size: int
    type_name: str | None = None
    origin: str = "bytecode"          # "layout" | "read" | "write" | "state"
    selector: bytes | None = None     # function performing the access
    guarded: bool = False

    @property
    def end(self) -> int:
        return self.offset + self.size

    def overlaps(self, other: "RangeUse") -> bool:
        return self.offset < other.end and other.offset < self.end

    def same_range(self, other: "RangeUse") -> bool:
        return self.offset == other.offset and self.size == other.size


@dataclass(slots=True)
class StorageProfile:
    """Slot usage summary of one contract."""

    address: bytes | None
    mode: str                                    # "source" | "bytecode"
    usages: dict[SlotKey, list[RangeUse]] = field(default_factory=dict)
    sensitive_slots: set[SlotKey] = field(default_factory=set)

    def add(self, slot: SlotKey, use: RangeUse) -> None:
        uses = self.usages.setdefault(slot, [])
        if use not in uses:
            uses.append(use)

    def slots(self) -> set[SlotKey]:
        return set(self.usages)

    def writes_to(self, slot: SlotKey) -> list[RangeUse]:
        return [use for use in self.usages.get(slot, [])
                if use.origin == "write"]


@dataclass(frozen=True, slots=True)
class StorageCollision:
    """One detected storage collision between a proxy/logic pair."""

    slot: SlotKey
    proxy_use: RangeUse
    logic_use: RangeUse
    kind: str                 # "layout-mismatch" | "type-mismatch"
    sensitive: bool = False
    exploitable: bool = False
    verified: bool = False
    exploit_selector: bytes | None = None


@dataclass(slots=True)
class StorageCollisionReport:
    """All storage collisions of one proxy/logic pair."""

    proxy: bytes | None
    logic: bytes | None
    collisions: list[StorageCollision] = field(default_factory=list)
    proxy_mode: str = "bytecode"
    logic_mode: str = "bytecode"

    @property
    def has_collision(self) -> bool:
        return bool(self.collisions)

    @property
    def has_verified_exploit(self) -> bool:
        return any(collision.verified for collision in self.collisions)


def profile_from_source(source: ContractSource,
                        address: bytes | None = None) -> StorageProfile:
    """Layout-based profile from verified source declarations."""
    profile = StorageProfile(address=address, mode="source")
    declarations = [(v.name, v.type_name) for v in source.storage_variables
                    if not v.is_constant]
    layout = compute_layout(declarations)
    for assignment in layout:
        parsed = parse_type(assignment.type_name)
        slot = (SlotKey.mapping(assignment.slot)
                if isinstance(parsed, MappingType)
                else SlotKey.concrete(assignment.slot))
        value_type = (parsed.value_type.name if isinstance(parsed, MappingType)
                      else assignment.type_name)
        size = (parsed.value_type.size if isinstance(parsed, MappingType)
                else assignment.size)
        profile.add(slot, RangeUse(
            offset=0 if isinstance(parsed, MappingType) else assignment.offset,
            size=size,
            type_name=value_type,
            origin="layout",
        ))
        if any(hint in assignment.name.lower() for hint in _SENSITIVE_NAME_HINTS):
            profile.sensitive_slots.add(slot)
    return profile


def profile_from_bytecode(code: bytes, address: bytes | None = None,
                          summary: SymbolicSummary | None = None,
                          state: StateBackend | None = None,
                          max_state_probe_slots: int = 8) -> StorageProfile:
    """Symbolic-execution profile, optionally augmented with live storage."""
    profile = StorageProfile(address=address, mode="bytecode")
    if summary is None:
        summary = SymbolicExecutor().summarize(code)
    written_slots: set[SlotKey] = set()
    for access in summary.semantic_accesses():
        if access.slot.kind == "symbolic":
            continue
        profile.add(access.slot, RangeUse(
            offset=access.offset,
            size=access.size,
            origin=access.kind,
            selector=access.selector,
            guarded=access.guarded,
        ))
        if access.kind == "write":
            written_slots.add(access.slot)
        if access.compared_to_caller:
            profile.sensitive_slots.add(access.slot)

    if state is not None and address is not None:
        # CRUSH's read-only sensitive slots: populated at deployment, never
        # written by the runtime code.  Width is estimated from the stored
        # value (an address reads as a 20-byte occupant).
        for slot_number in range(max_state_probe_slots):
            value = state.get_storage(address, slot_number)
            if not value:
                continue
            slot = SlotKey.concrete(slot_number)
            occupied_size = max(1, (value.bit_length() + 7) // 8)
            # Values are width-estimated from their top byte, which loses
            # leading zero bytes; snap near-address and near-word widths to
            # the canonical type sizes to reduce spurious mismatches.
            if 17 <= occupied_size <= 20:
                occupied_size = 20
            elif occupied_size > 20:
                occupied_size = 32
            profile.add(slot, RangeUse(
                offset=0, size=occupied_size, origin="state"))
            if slot not in written_slots:
                profile.sensitive_slots.add(slot)
    return profile


class StorageCollisionDetector:
    """Pairwise profile comparison + exploit synthesis and verification."""

    def __init__(self, registry: SourceRegistry | None = None,
                 state: StateBackend | None = None,
                 block: BlockContext | None = None) -> None:
        # ``registry or ...`` would discard an *empty* registry (it defines
        # __len__), silently detaching the detector from later verifications.
        self._registry = registry if registry is not None else SourceRegistry()
        self._state = state
        self._block = block or BlockContext(number=1, timestamp=1_600_000_000)

    # ------------------------------------------------------------- profiles
    def profile(self, code: bytes, address: bytes | None = None,
                probe_state: bool = False,
                code_hash: bytes | None = None) -> StorageProfile:
        """Bytecode profile, refined with the declared layout when source
        is available (by address, or by the node's recorded ``code_hash``).

        The CRUSH engine is bytecode-based even for verified contracts
        (§5.2); source adds declared types and name-based sensitivity on
        top of the symbolically recovered accesses.
        """
        profile = profile_from_bytecode(
            code, address,
            state=self._state if probe_state else None,
        )
        source = self._registry.resolve(address, code_hash)
        if source is not None:
            layout_profile = profile_from_source(source, address)
            for slot, uses in layout_profile.usages.items():
                for use in uses:
                    profile.add(slot, use)
            profile.sensitive_slots |= layout_profile.sensitive_slots
            profile.mode = "source"
        return profile

    # ------------------------------------------------------------- detection
    def detect(self, proxy_code: bytes, logic_code: bytes,
               proxy_address: bytes | None = None,
               logic_address: bytes | None = None,
               verify_exploits: bool = True,
               trail: EvidenceTrail = NULL_TRAIL, *,
               proxy_hash: bytes | None = None,
               logic_hash: bytes | None = None) -> StorageCollisionReport:
        """Full §5.2 pipeline for one proxy/logic pair.

        ``trail`` records both sides' profile provenance, every slot/range
        clash with its classification, and the outcome of each exploit
        verification run.  The codehashes resolve source as in
        :meth:`profile`.
        """
        proxy_profile = self.profile(proxy_code, proxy_address,
                                     probe_state=True, code_hash=proxy_hash)
        logic_profile = self.profile(logic_code, logic_address,
                                     code_hash=logic_hash)
        trail.note(provenance.STORAGE_PROFILE, side="proxy",
                   mode=proxy_profile.mode, slots=len(proxy_profile.usages))
        trail.note(provenance.STORAGE_PROFILE, side="logic",
                   mode=logic_profile.mode, slots=len(logic_profile.usages))
        collisions = self.compare_profiles(proxy_profile, logic_profile)

        if verify_exploits and self._state is not None and proxy_address:
            collisions = [
                self._verify(collision, proxy_address, trail=trail)
                if collision.exploitable else collision
                for collision in collisions
            ]
        for collision in collisions:
            trail.note(
                provenance.STORAGE_COLLISION,
                slot=hex(collision.slot.base),
                proxy_range=[collision.proxy_use.offset,
                             collision.proxy_use.end],
                logic_range=[collision.logic_use.offset,
                             collision.logic_use.end],
                kind=collision.kind,
                sensitive=collision.sensitive,
                exploitable=collision.exploitable,
                verified=collision.verified,
            )
        return StorageCollisionReport(
            proxy=proxy_address,
            logic=logic_address,
            collisions=collisions,
            proxy_mode=proxy_profile.mode,
            logic_mode=logic_profile.mode,
        )

    def compare_profiles(self, proxy: StorageProfile,
                         logic: StorageProfile) -> list[StorageCollision]:
        """Pairwise slot comparison of two profiles."""
        collisions: list[StorageCollision] = []
        seen: set[tuple] = set()
        for slot in sorted(proxy.slots() & logic.slots(),
                           key=lambda key: (key.kind, key.base)):
            if slot.kind != CONCRETE:
                # Mapping elements share a slot family only when the marker
                # slot matches, and then key-hashing keeps them disjoint.
                continue
            sensitive = slot in proxy.sensitive_slots
            for proxy_use in proxy.usages[slot]:
                for logic_use in logic.usages[slot]:
                    collision = self._classify(slot, proxy_use, logic_use,
                                               sensitive, logic)
                    if collision is None:
                        continue
                    key = (slot, proxy_use.offset, proxy_use.size,
                           logic_use.offset, logic_use.size, collision.kind)
                    if key in seen:
                        continue
                    seen.add(key)
                    collisions.append(collision)
        return collisions

    def _classify(self, slot: SlotKey, proxy_use: RangeUse,
                  logic_use: RangeUse, sensitive: bool,
                  logic: StorageProfile) -> StorageCollision | None:
        if not proxy_use.overlaps(logic_use):
            return None
        if proxy_use.same_range(logic_use):
            if (proxy_use.type_name and logic_use.type_name
                    and proxy_use.type_name != logic_use.type_name):
                kind = "type-mismatch"
            else:
                # Same bytes, same (or unknown) interpretation: compatible.
                # Differently *named* variables with identical ranges are
                # storage padding, not collisions (the USCHunt FP class).
                return None
        else:
            kind = "layout-mismatch"

        exploit_selector = self._find_unguarded_write(slot, proxy_use, logic)
        exploitable = sensitive and exploit_selector is not None
        return StorageCollision(
            slot=slot,
            proxy_use=proxy_use,
            logic_use=logic_use,
            kind=kind,
            sensitive=sensitive,
            exploitable=exploitable,
            exploit_selector=exploit_selector,
        )

    @staticmethod
    def _find_unguarded_write(slot: SlotKey, proxy_use: RangeUse,
                              logic: StorageProfile) -> bytes | None:
        """A logic-side function any caller can use to clobber the range."""
        for write in logic.writes_to(slot):
            if write.guarded or write.selector is None:
                continue
            if write.overlaps(proxy_use):
                return write.selector
        # Source mode carries no per-function writes; fall back to bytecode
        # summaries when the caller supplied them via usages origins.
        return None

    # ---------------------------------------------------------- verification
    def _verify(self, collision: StorageCollision, proxy_address: bytes,
                trail: EvidenceTrail = NULL_TRAIL) -> StorageCollision:
        """Execute the synthesized exploit transaction on an overlay.

        The attack calls the colliding logic function *through the proxy*;
        the exploit is verified when the sensitive byte range of the slot
        observably changes (CRUSH's write-one-type/read-another check).
        """
        assert self._state is not None and collision.exploit_selector is not None
        overlay = OverlayState(self._state)
        tracer = StorageTracer()
        evm = EVM(
            overlay,
            block=self._block,
            tx=TransactionContext(origin=ATTACKER),
            config=ExecutionConfig(instruction_budget=500_000),
            tracer=tracer,
        )
        calldata = collision.exploit_selector + b"\x00" * 96
        before = self._state.get_storage(proxy_address, collision.slot.base)
        result = evm.execute(Message(
            sender=ATTACKER, to=proxy_address, data=calldata, gas=5_000_000))
        after = overlay.get_storage(proxy_address, collision.slot.base)

        mask = ((1 << (collision.proxy_use.size * 8)) - 1) << (
            collision.proxy_use.offset * 8)
        changed = result.success and (before & mask) != (after & mask)
        trail.note(provenance.STORAGE_VERIFY,
                   selector="0x" + collision.exploit_selector.hex(),
                   slot=hex(collision.slot.base), changed=changed)
        return StorageCollision(
            slot=collision.slot,
            proxy_use=collision.proxy_use,
            logic_use=collision.logic_use,
            kind=collision.kind,
            sensitive=collision.sensitive,
            exploitable=collision.exploitable,
            verified=changed,
            exploit_selector=collision.exploit_selector,
        )
