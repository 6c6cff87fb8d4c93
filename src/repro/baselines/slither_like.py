"""The Slither baseline (§9.1): source-only, keyword-driven proxy checks.

Slither's upgradeability checks operate on verified source and lean on
keyword/pattern searches ("proxy", "delegatecall"), which yields false
positives on contracts that merely mention the keywords and misses every
contract without published source.  It also does not resolve the associated
logic contracts, so its collision checking needs the pair handed to it.
"""

from __future__ import annotations

from repro.chain.explorer import SourceRegistry
from repro.chain.node import ArchiveNode
from repro.utils.abi import function_selector

_KEYWORDS = ("delegatecall", "proxy")


class SlitherKeyword:
    """Source keyword search for proxies + source-level collision check."""

    name = "Slither"

    def __init__(self, node: ArchiveNode, registry: SourceRegistry) -> None:
        self._node = node
        self._registry = registry

    def is_proxy(self, address: bytes) -> bool | None:
        """Keyword verdict; ``None`` when no source is available."""
        source = self._registry.resolve(address,
                                        self._node.get_code_hash(address))
        if source is None:
            return None
        lowered = source.text.lower()
        return any(keyword in lowered for keyword in _KEYWORDS)

    def find_proxies(self, addresses: list[bytes]) -> set[bytes]:
        return {address for address in addresses if self.is_proxy(address)}

    def function_collisions(self, proxy: bytes, logic: bytes) -> set[bytes] | None:
        """Prototype-hash intersection; ``None`` when either source is missing."""
        proxy_source = self._registry.resolve(proxy,
                                              self._node.get_code_hash(proxy))
        logic_source = self._registry.resolve(logic,
                                              self._node.get_code_hash(logic))
        if proxy_source is None or logic_source is None:
            return None
        proxy_selectors = {function_selector(p)
                           for p in proxy_source.function_prototypes}
        logic_selectors = {function_selector(p)
                           for p in logic_source.function_prototypes}
        return proxy_selectors & logic_selectors
