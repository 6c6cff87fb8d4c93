"""The USCHunt baseline (Bodell et al., USENIX Security '23).

USCHunt builds on Slither: it needs *verified source*, must compile it, and
then statically recognizes upgradeable proxies and their collisions.  The
behaviours the paper measures against (§6.2/§6.3) are modelled explicitly:

* **compilation halts**: ~30% of Sanctuary contracts fail to compile under
  default flags (unknown compiler versions).  Sources whose
  ``compiler_version`` is outside the supported set halt the analysis;
* **proxy detection**: source-level — a fallback containing a delegatecall;
* **function collisions**: prototype intersection (source-only);
* **storage collisions**: layout comparison that flags *differently named*
  variables sharing a slot — which sweeps in storage padding and produces
  the false positives Table 2 charges USCHunt with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.explorer import ContractSource, SourceRegistry
from repro.chain.node import ArchiveNode
from repro.lang.storage_layout import compute_layout
from repro.utils.abi import function_selector

# Versions the modelled toolchain can compile; anything else halts, like
# USCHunt under default compiler flags.
SUPPORTED_COMPILERS = ("v0.8.21", "v0.8.19", "v0.8.17", "v0.8.0", "v0.7.6")


@dataclass(slots=True)
class USCHuntResult:
    """Per-contract outcome: halted, not-a-proxy, or proxy."""

    address: bytes
    halted: bool = False
    is_proxy: bool = False


@dataclass(slots=True)
class USCHuntStorageFinding:
    """A claimed storage collision (name-mismatch heuristic)."""

    slot: int
    proxy_variable: str
    logic_variable: str
    proxy_type: str
    logic_type: str

    @property
    def is_name_only_mismatch(self) -> bool:
        """Same slot/type but different names — the padding FP class."""
        return self.proxy_type == self.logic_type


class USCHunt:
    """Source-only upgradeable-proxy hunter."""

    name = "USCHunt"

    def __init__(self, node: ArchiveNode, registry: SourceRegistry) -> None:
        self._node = node
        self._registry = registry
        self.halt_count = 0

    def _source(self, address: bytes) -> ContractSource | None:
        return self._registry.resolve(address,
                                      self._node.get_code_hash(address))

    def check(self, address: bytes) -> USCHuntResult:
        source = self._source(address)
        if source is None:
            return USCHuntResult(address)
        if source.compiler_version not in SUPPORTED_COMPILERS:
            self.halt_count += 1
            return USCHuntResult(address, halted=True)
        return USCHuntResult(
            address, is_proxy=self._recognizes_proxy(source))

    @staticmethod
    def _recognizes_proxy(source: ContractSource) -> bool:
        """Slither-style syntactic proxy recognition.

        Requires a fallback delegatecall *and* a recognizable
        implementation-address variable (named like ``logic``/``impl``/
        ``implementation``) or a known fixed-slot annotation.  Proxies that
        keep their target under a non-standard name slip through — the
        source of USCHunt's Table 2 false negatives ("the underlying
        Slither fails to identify proxy contracts").
        """
        if not source.has_fallback_delegatecall:
            return False
        recognizable = {"logic", "impl", "implementation", "target",
                        "proxiable", "facets"}
        if any(variable.name.lower() in recognizable
               for variable in source.storage_variables):
            return True
        return "fixed slot" in source.text.lower()

    def find_proxies(self, addresses: list[bytes]) -> set[bytes]:
        return {address for address in addresses
                if self.check(address).is_proxy}

    # ---------------------------------------------------------- collisions
    def function_collisions(self, proxy: bytes, logic: bytes) -> set[bytes]:
        """Prototype intersection — but only when the proxy was recognized.

        USCHunt's collision stage runs downstream of its proxy detection:
        if the contract halted or was not flagged as a proxy, no collisions
        are reported (the Table 2 false-negative mechanism).
        """
        if not self.check(proxy).is_proxy:
            return set()
        proxy_source = self._source(proxy)
        logic_source = self._source(logic)
        if proxy_source is None or logic_source is None:
            return set()
        return (
            {function_selector(p) for p in proxy_source.function_prototypes}
            & {function_selector(p) for p in logic_source.function_prototypes}
        )

    def storage_collisions(self, proxy: bytes,
                           logic: bytes) -> list[USCHuntStorageFinding]:
        """Name-mismatch layout comparison (the FP-prone heuristic)."""
        if not self.check(proxy).is_proxy:
            return []
        proxy_source = self._source(proxy)
        logic_source = self._source(logic)
        if proxy_source is None or logic_source is None:
            return []

        findings: list[USCHuntStorageFinding] = []
        proxy_layout = compute_layout(
            [(v.name, v.type_name) for v in proxy_source.storage_variables
             if not v.is_constant])
        logic_layout = compute_layout(
            [(v.name, v.type_name) for v in logic_source.storage_variables
             if not v.is_constant])
        for proxy_assignment in proxy_layout:
            for logic_assignment in logic_layout:
                if proxy_assignment.slot != logic_assignment.slot:
                    continue
                if not proxy_assignment.overlaps(logic_assignment):
                    continue
                if proxy_assignment.name == logic_assignment.name:
                    continue
                # Different names sharing a slot: USCHunt calls this a
                # collision even when types and offsets agree (padding).
                findings.append(USCHuntStorageFinding(
                    slot=proxy_assignment.slot,
                    proxy_variable=proxy_assignment.name,
                    logic_variable=logic_assignment.name,
                    proxy_type=proxy_assignment.type_name,
                    logic_type=logic_assignment.type_name,
                ))
        return findings
