"""§6.1 — performance: per-contract check latency, throughput, RPC economy.

The paper reports 6.4 ms per proxy check (156 contracts/second), ~26
``getStorageAt`` calls per storage proxy, and 6.7 ms per function-collision
check.  Absolute numbers depend on hardware; the reproduction target is
millisecond-scale checks and double-digit RPC counts against million-block
histories.
"""

from __future__ import annotations

import statistics

import pytest

from repro.core.function_collision import FunctionCollisionDetector
from repro.core.logic_finder import LogicFinder
from repro.core.proxy_detector import ProxyDetector

from conftest import emit


@pytest.fixture(scope="module")
def detector(landscape) -> ProxyDetector:
    return ProxyDetector(landscape.chain.state,
                         landscape.chain.block_context())


def test_proxy_check_latency(benchmark, landscape, detector) -> None:
    addresses = landscape.addresses()

    def sweep():
        for address in addresses:
            detector.check(address)

    benchmark.pedantic(sweep, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.mean
    per_contract_ms = seconds / len(addresses) * 1000
    throughput = len(addresses) / seconds
    emit("sec61_proxy_check", "\n".join([
        f"contracts analyzed:      {len(addresses)}",
        f"mean per-contract check: {per_contract_ms:.2f} ms   (paper: 6.4 ms)",
        f"throughput:              {throughput:.0f} contracts/s "
        f"(paper: 156.3 /s)",
    ]))
    assert per_contract_ms < 100


def test_getstorageat_economy(benchmark, landscape, detector) -> None:
    """API calls per storage proxy for full logic-history recovery."""
    node = landscape.node
    storage_proxies = []
    for address, truth in landscape.truths.items():
        if truth.is_proxy and truth.standard in ("Others", "EIP-1967",
                                                 "EIP-1822"):
            check = detector.check(address)
            if check.is_proxy and check.logic_slot is not None:
                storage_proxies.append(check)
    finder = LogicFinder(node)

    def recover_all():
        return [finder.find(check) for check in storage_proxies]

    histories = benchmark.pedantic(recover_all, rounds=2, iterations=1)
    calls = [history.api_calls_used for history in histories]
    total_blocks = node.latest_block_number
    emit("sec61_getstorageat", "\n".join([
        f"storage proxies:            {len(storage_proxies)}",
        f"chain height:               {total_blocks} blocks",
        f"mean getStorageAt calls:    {statistics.mean(calls):.1f} "
        f"(paper: ~26)",
        f"max getStorageAt calls:     {max(calls)}",
        f"naive per-block scan cost:  {total_blocks} calls per proxy",
    ]))
    assert statistics.mean(calls) < 100
    assert max(calls) < total_blocks / 1000


def test_function_collision_latency(benchmark, landscape) -> None:
    node = landscape.node
    detector = FunctionCollisionDetector(landscape.registry)
    pairs = []
    for address, truth in landscape.truths.items():
        if truth.is_proxy and truth.logic_addresses:
            logic = truth.logic_addresses[0]
            pairs.append((node.get_code(address), node.get_code(logic),
                          node.get_code_hash(address),
                          node.get_code_hash(logic)))
    pairs = pairs[:100]

    def check_all():
        for proxy_code, logic_code, proxy_hash, logic_hash in pairs:
            detector.detect(proxy_code, logic_code, proxy_hash=proxy_hash,
                            logic_hash=logic_hash)

    benchmark.pedantic(check_all, rounds=3, iterations=1)
    per_pair_ms = benchmark.stats.stats.mean / len(pairs) * 1000
    emit("sec61_function_collision", "\n".join([
        f"pairs checked:        {len(pairs)}",
        f"mean per-pair check:  {per_pair_ms:.2f} ms   (paper: 6.7 ms)",
    ]))
    assert per_pair_ms < 100
