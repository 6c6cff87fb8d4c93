"""Etherscan-like source-code registry.

The paper's pipeline asks Etherscan for verified source (§5.1) and, for
efficiency, assigns a known source to every other contract sharing the same
runtime-bytecode hash (§7.1).  This registry reproduces both behaviours;
lookups take the node's recorded codehash
(:meth:`~repro.chain.api.NodeRPC.get_code_hash`), never the code itself.

A :class:`ContractSource` is the uniform parsed form the paper's custom
Etherscan parser produces: the declared functions (canonical prototypes) and
the storage variable declarations in order — everything the source-based
collision detectors need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.keccak import keccak256


@dataclass(frozen=True)
class StorageVariableDecl:
    """One storage variable declaration, in declaration order."""

    name: str
    type_name: str
    is_constant: bool = False  # constants take no storage slot


@dataclass(frozen=True)
class ContractSource:
    """Parsed, uniform view of a verified contract source."""

    contract_name: str
    function_prototypes: tuple[str, ...] = ()
    storage_variables: tuple[StorageVariableDecl, ...] = ()
    text: str = ""
    compiler_version: str = "v0.8.21"

    @property
    def has_fallback_delegatecall(self) -> bool:
        """Source-level heuristic used by the Slither-like baseline."""
        lowered = self.text.lower()
        return "fallback" in lowered and "delegatecall" in lowered


class SourceRegistry:
    """Maps contract addresses to verified sources."""

    def __init__(self) -> None:
        self._by_address: dict[bytes, ContractSource] = {}
        self._by_code_hash: dict[bytes, ContractSource] = {}

    def verify(self, address: bytes, source: ContractSource,
               runtime_code: bytes | None = None) -> None:
        """Publish (verify) source for an address, optionally keyed by code."""
        self._by_address[address] = source
        if runtime_code:   # no code, nothing to propagate across
            self._by_code_hash[keccak256(runtime_code)] = source

    def get_source(self, address: bytes) -> ContractSource | None:
        return self._by_address.get(address)

    def has_source(self, address: bytes) -> bool:
        return address in self._by_address

    def get_source_by_code_hash(self,
                                code_hash: bytes) -> ContractSource | None:
        """§7.1 optimization: source propagates across identical bytecode."""
        return self._by_code_hash.get(code_hash)

    def resolve(self, address: bytes | None,
                code_hash: bytes | None = None) -> ContractSource | None:
        """Address lookup first, then bytecode-hash propagation."""
        source = self._by_address.get(address)
        if source is not None or code_hash is None:
            return source
        return self.get_source_by_code_hash(code_hash)

    def verified_addresses(self) -> list[bytes]:
        return list(self._by_address)

    def __len__(self) -> int:
        return len(self._by_address)
