"""Shared NodeRPC conformance suite.

Every node class the repository declares as a :class:`repro.chain.api.NodeRPC`
conformer runs the *same* behavioral checks here, against the same little
world, so the three call surfaces (archive, resilient, faulty) cannot drift
apart: a missing method, a renamed parameter, or a divergent return value
fails the suite for exactly the class that broke it.
"""

from __future__ import annotations

import pytest

from repro.chain.api import NodeRPC
from repro.chain.blockchain import Blockchain
from repro.chain.failover import build_failover_node
from repro.chain.faults import FaultPlan, FaultyNode
from repro.chain.node import ArchiveNode
from repro.chain.resilient import ResilientNode
from repro.evm.state import EMPTY_CODE_HASH
from repro.lang import compile_contract, stdlib
from repro.obs.registry import MetricsRegistry
from repro.utils.keccak import keccak256

from tests.conftest import ALICE


def _archive(chain: Blockchain) -> ArchiveNode:
    return ArchiveNode(chain)


def _resilient(chain: Blockchain) -> ResilientNode:
    return ResilientNode(ArchiveNode(chain), sleep=None)


def _faulty(chain: Blockchain) -> FaultyNode:
    # An empty plan: full wrapping machinery, zero injected behavior.
    return FaultyNode(ArchiveNode(chain), FaultPlan())


def _failover(chain: Blockchain):
    # Two healthy endpoints; reads route through the sticky primary.
    return build_failover_node(ArchiveNode(chain), 2)


CONFORMERS = {
    "ArchiveNode": _archive,
    "ResilientNode": _resilient,
    "FaultyNode": _faulty,
    "FailoverNode": _failover,
}


@pytest.fixture()
def world(chain: Blockchain):
    logic = chain.deploy(ALICE, compile_contract(
        stdlib.audius_logic()).init_code)
    proxy = chain.deploy(ALICE, compile_contract(
        stdlib.audius_proxy("AP", logic.created_address, ALICE)).init_code)
    assert logic.success and proxy.success
    return chain, logic.created_address, proxy.created_address


@pytest.fixture(params=sorted(CONFORMERS))
def node(request, world):
    chain, _, _ = world
    return CONFORMERS[request.param](chain)


def test_isinstance_of_the_runtime_checkable_protocol(node) -> None:
    assert isinstance(node, NodeRPC)


def test_every_protocol_member_is_present(node) -> None:
    members = (
        "metrics", "get_code", "get_code_hash", "get_storage_at", "call",
        "is_alive", "get_transaction_count", "get_balance", "get_logs",
        "transactions_of", "has_transactions", "year_of", "chain",
        "latest_block_number", "genesis_block_number",
    )
    for member in members:
        assert hasattr(node, member), f"missing NodeRPC member {member!r}"


def test_metrics_is_a_registry(node) -> None:
    assert isinstance(node.metrics, MetricsRegistry)


def test_reads_match_the_ground_truth_archive(node, world) -> None:
    chain, logic, proxy = world
    truth = ArchiveNode(chain)
    assert node.get_code(proxy) == truth.get_code(proxy)
    assert node.get_code(proxy, chain.latest_block_number) == \
        truth.get_code(proxy, chain.latest_block_number)
    assert node.get_storage_at(proxy, 0) == truth.get_storage_at(proxy, 0)
    assert node.get_balance(proxy) == truth.get_balance(proxy)
    assert node.is_alive(proxy) is True
    assert node.is_alive(b"\x00" * 20) is False


def test_code_hash_is_the_keccak_of_the_code_at_every_height(
        node, world) -> None:
    chain, logic, proxy = world
    for address in (logic, proxy):
        assert node.get_code_hash(address) == keccak256(node.get_code(address))
        assert node.get_code_hash(address) != EMPTY_CODE_HASH
        # Historical heights: before, at and after each deployment.
        for height in range(chain.latest_block_number + 1):
            assert node.get_code_hash(address, height) == \
                keccak256(node.get_code(address, height))
    assert node.get_code_hash(proxy, 0) == EMPTY_CODE_HASH
    assert node.get_code_hash(ALICE) == EMPTY_CODE_HASH        # an EOA
    assert node.get_code_hash(ALICE, 0) == EMPTY_CODE_HASH


def test_call_emulates_like_the_archive(node, world) -> None:
    chain, logic, proxy = world
    truth = ArchiveNode(chain)
    probe = b"\x12\x34\x56\x78" + b"\x00" * 64
    mine = node.call(proxy, probe)
    reference = truth.call(proxy, probe)
    assert mine.success == reference.success
    assert mine.output == reference.output


def test_transaction_history_views_agree(node, world) -> None:
    chain, logic, proxy = world
    truth = ArchiveNode(chain)
    assert node.get_transaction_count(proxy) == \
        truth.get_transaction_count(proxy)
    assert node.has_transactions(proxy) == truth.has_transactions(proxy)
    assert len(node.transactions_of(proxy)) == \
        node.get_transaction_count(proxy)


def test_chain_and_block_metadata_agree(node, world) -> None:
    chain, _, _ = world
    assert node.chain is chain
    assert node.latest_block_number == chain.latest_block_number
    assert node.genesis_block_number == 0
    assert node.year_of(chain.latest_block_number) == \
        chain.year_of(chain.latest_block_number)


def test_wrappers_nest_and_stay_conformant(world) -> None:
    chain, _, proxy = world
    stacked = ResilientNode(FaultyNode(ArchiveNode(chain), FaultPlan()),
                            sleep=None)
    assert isinstance(stacked, NodeRPC)
    assert stacked.get_code(proxy) == ArchiveNode(chain).get_code(proxy)
