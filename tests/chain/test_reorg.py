"""Chain reorganizations: block hashing, :meth:`Blockchain.fork`, and the
``reorg`` fault kind that injects them into chaos sweeps."""

from __future__ import annotations

from repro.chain.blockchain import Blockchain
from repro.chain.faults import REORG, FaultPlan, FaultRule, FaultyNode, canned_plan
from repro.chain.node import ArchiveNode
from repro.evm.state import EMPTY_CODE_HASH
from repro.lang import compile_contract, stdlib
from repro.utils.keccak import keccak256

from tests.conftest import ALICE, BOB, ETHER


def _deploy(chain: Blockchain, contract) -> bytes:
    receipt = chain.deploy(ALICE, compile_contract(contract).init_code)
    assert receipt.success
    return receipt.created_address


# ------------------------------------------------------------- block hashing
def test_blocks_hash_chain_through_parent_hashes(chain: Blockchain) -> None:
    _deploy(chain, stdlib.simple_wallet("W", ALICE))
    chain.transact(ALICE, BOB, b"")
    assert chain.blocks[0].parent_hash == b"\x00" * 32
    for previous, block in zip(chain.blocks, chain.blocks[1:]):
        assert block.parent_hash == previous.hash
        assert len(block.hash) == 32
    hashes = [block.hash for block in chain.blocks]
    assert len(set(hashes)) == len(hashes)


def test_block_hash_lookup_by_height(chain: Blockchain) -> None:
    _deploy(chain, stdlib.simple_wallet("W", ALICE))
    tip = chain.blocks[-1]
    assert chain.block_hash(tip.number) == tip.hash
    assert chain.block_hash(0) == chain.blocks[0].hash
    # Implicit empty heights have no record and therefore no hash.
    chain.advance_to_block(tip.number + 10)
    assert chain.block_hash(tip.number + 5) is None


# --------------------------------------------------------------------- fork
def test_fork_orphans_deployments_and_reverts_state(chain: Blockchain) -> None:
    survivor = _deploy(chain, stdlib.simple_wallet("Keep", ALICE))
    doomed = _deploy(chain, stdlib.simple_wallet("Gone", ALICE))
    chain.fund(doomed, 2 * ETHER)
    node = ArchiveNode(chain)
    assert node.is_alive(doomed)

    orphaned = chain.fork(1)          # the block holding the doomed deploy
    assert orphaned == [doomed]
    assert not node.is_alive(doomed)
    assert node.get_code(doomed) == b""
    assert node.get_balance(doomed) == 0
    assert node.is_alive(survivor)
    assert doomed not in chain.receipts_by_address


def test_fork_rolls_back_the_recorded_codehash(chain: Blockchain) -> None:
    _deploy(chain, stdlib.simple_wallet("Keep", ALICE))
    doomed = _deploy(chain, stdlib.simple_wallet("Gone", ALICE))
    doomed_block = chain.latest_block_number
    node = ArchiveNode(chain)
    doomed_hash = node.get_code_hash(doomed)
    assert doomed_hash == keccak256(node.get_code(doomed))

    assert chain.fork(1) == [doomed]
    assert node.get_code_hash(doomed) == EMPTY_CODE_HASH
    assert node.get_code_hash(doomed, doomed_block) == EMPTY_CODE_HASH

    # The replacement branch deploys other code; the sender's nonce was
    # rolled back too, so it lands at the orphaned address.
    replacement = _deploy(chain, stdlib.storage_proxy("P", b"\x11" * 20,
                                                      ALICE))
    assert replacement == doomed
    replacement_hash = node.get_code_hash(replacement)
    assert replacement_hash == keccak256(node.get_code(replacement))
    assert replacement_hash not in (doomed_hash, EMPTY_CODE_HASH)
    assert node.get_code_hash(replacement, chain.latest_block_number) == \
        replacement_hash


def test_fork_bumps_branch_nonce_so_replacements_hash_differently(
        chain: Blockchain) -> None:
    _deploy(chain, stdlib.simple_wallet("A", ALICE))
    height = chain.latest_block_number
    old_hash = chain.block_hash(height)
    chain.fork(1)
    _deploy(chain, stdlib.simple_wallet("A", ALICE))   # same height again
    assert chain.latest_block_number == height
    assert chain.block_hash(height) != old_hash


def test_fork_depth_clamps_to_undo_capacity(chain: Blockchain) -> None:
    for index in range(3):
        _deploy(chain, stdlib.simple_wallet(f"W{index}", ALICE))
    depth = chain.max_fork_depth
    assert 0 < depth <= len(chain.blocks)
    assert chain.fork(0) == []
    orphaned = chain.fork(10 ** 6)     # clamped, not an error
    assert len(orphaned) == 3
    assert chain.max_fork_depth == 0 or chain.max_fork_depth < depth


def test_fork_returns_factory_internal_creations(chain: Blockchain) -> None:
    wallet = _deploy(chain, stdlib.simple_wallet("W", ALICE))
    receipt = chain.deploy(
        ALICE, stdlib.raw_deploy_init(b"\x00"))  # keep heights moving
    assert receipt.success
    proxy_init = stdlib.minimal_proxy_init(wallet)
    deployed = chain.deploy(ALICE, proxy_init)
    assert deployed.success
    orphaned = chain.fork(1)
    assert orphaned == [deployed.created_address]


def test_forked_chain_keeps_accepting_blocks(chain: Blockchain) -> None:
    _deploy(chain, stdlib.simple_wallet("W", ALICE))
    chain.fork(1)
    replacement = _deploy(chain, stdlib.simple_wallet("R", ALICE))
    node = ArchiveNode(chain)
    assert node.is_alive(replacement)
    tip = chain.blocks[-1]
    assert tip.parent_hash == chain.blocks[-2].hash


# --------------------------------------------------------- reorg fault kind
def test_reorg_rule_fires_through_the_faulty_node(chain: Blockchain) -> None:
    doomed = _deploy(chain, stdlib.simple_wallet("Gone", ALICE))
    plan = FaultPlan(rules=[FaultRule(REORG, methods=("eth_getCode",),
                                      window=(0, 1), depth=1)])
    node = FaultyNode(ArchiveNode(chain), plan)
    node.get_code(doomed)              # triggers the fork, then answers
    assert not ArchiveNode(chain).is_alive(doomed)


def test_reorg_rule_fires_once_not_per_retry(chain: Blockchain) -> None:
    for index in range(4):
        _deploy(chain, stdlib.simple_wallet(f"W{index}", ALICE))
    blocks_before = len(chain.blocks)
    plan = FaultPlan(rules=[FaultRule(REORG, methods=("eth_getCode",),
                                      window=(0, 10), depth=1)])
    node = FaultyNode(ArchiveNode(chain), plan)
    target = chain.blocks[1].receipts[0].created_address
    for _ in range(5):
        node.get_code(target)
    # One fork per (rule, call) key — not one per matching window index.
    assert len(chain.blocks) == blocks_before - 1


def test_chain_reorg_canned_plan_exists() -> None:
    plan = canned_plan("chain-reorg", seed=1)
    assert any(rule.kind == REORG for rule in plan.rules)
