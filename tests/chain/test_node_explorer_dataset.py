"""ArchiveNode facade, SourceRegistry, ContractDataset."""

from __future__ import annotations

from repro.chain.blockchain import Blockchain
from repro.chain.dataset import ContractDataset
from repro.chain.explorer import SourceRegistry
from repro.chain.node import ArchiveNode
from repro.lang import compile_contract, contract_source_of, stdlib
from repro.utils import encode_call

from tests.conftest import ALICE, BOB


def _deployed_wallet(chain: Blockchain):
    compiled = compile_contract(stdlib.simple_wallet("W", ALICE))
    address = chain.deploy(ALICE, compiled.init_code).created_address
    return address, compiled


def test_node_reads_and_counts(chain: Blockchain) -> None:
    address, compiled = _deployed_wallet(chain)
    node = ArchiveNode(chain)
    assert node.get_code(address) == compiled.runtime_code
    assert node.get_storage_at(address, 0) != 0
    assert node.api_calls.get("eth_getCode") == 1
    assert node.api_calls.get("eth_getStorageAt") == 1
    node.api_calls.reset()
    assert node.api_calls.total() == 0


def test_node_historical_storage(chain: Blockchain) -> None:
    logic = chain.deploy(
        ALICE, compile_contract(stdlib.simple_wallet("L", ALICE)).init_code
    ).created_address
    proxy = chain.deploy(
        ALICE, compile_contract(stdlib.storage_proxy("P", logic, ALICE)).init_code
    ).created_address
    deploy_block = chain.latest_block_number
    other = chain.deploy(
        ALICE, compile_contract(stdlib.simple_wallet("L2", ALICE)).init_code
    ).created_address
    chain.transact(ALICE, proxy,
                   encode_call("setImplementation(address)", [other]))
    node = ArchiveNode(chain)
    before = node.get_storage_at(proxy, 1, deploy_block)
    after = node.get_storage_at(proxy, 1, chain.latest_block_number)
    assert before != after
    assert after == int.from_bytes(other, "big")


def test_node_is_alive(chain: Blockchain) -> None:
    address, _ = _deployed_wallet(chain)
    node = ArchiveNode(chain)
    assert node.is_alive(address)
    assert not node.is_alive(b"\x99" * 20)


def test_node_call(chain: Blockchain) -> None:
    address, _ = _deployed_wallet(chain)
    node = ArchiveNode(chain)
    result = node.call(address, encode_call("ownerOf()"))
    assert result.success
    assert result.output[-20:] == ALICE


def test_registry_by_address_and_codehash(chain: Blockchain) -> None:
    address, compiled = _deployed_wallet(chain)
    registry = SourceRegistry()
    source = contract_source_of(compiled.contract)
    registry.verify(address, source, compiled.runtime_code)

    assert registry.has_source(address)
    assert registry.get_source(address) is source
    # Propagation by identical bytecode (§7.1): another deployment of the
    # same contract resolves without explicit verification.
    clone = chain.deploy(ALICE, compiled.init_code).created_address
    assert not registry.has_source(clone)
    assert registry.resolve(clone, chain.state.get_code_hash(clone)) is source
    assert registry.resolve(b"\x42" * 20, b"\x01" * 32) is None
    assert registry.resolve(b"\x42" * 20) is None
    assert len(registry) == 1


def test_contract_source_fields() -> None:
    contract = stdlib.storage_proxy("P", b"\x11" * 20, ALICE)
    source = contract_source_of(contract)
    assert source.contract_name == "P"
    assert "setImplementation(address)" in source.function_prototypes
    assert [v.name for v in source.storage_variables] == ["owner", "logic"]
    assert source.has_fallback_delegatecall


def test_wallet_source_has_no_fallback_delegatecall() -> None:
    source = contract_source_of(stdlib.simple_wallet("W", ALICE))
    assert not source.has_fallback_delegatecall


def test_dataset_scan_chain(chain: Blockchain) -> None:
    address, _ = _deployed_wallet(chain)
    second, _ = _deployed_wallet(chain)
    dataset = ContractDataset.scan_chain(chain)
    assert address in dataset
    assert second in dataset
    assert dataset.deploy_block_of(address) < dataset.deploy_block_of(second)
    assert len(dataset.records()) == len(dataset)


def test_dataset_explicit_add() -> None:
    dataset = ContractDataset()
    dataset.add(b"\x01" * 20, 5, ALICE)
    assert dataset.get(b"\x01" * 20).deployer == ALICE
    assert dataset.addresses() == [b"\x01" * 20]
    try:
        dataset.deploy_block_of(b"\x02" * 20)
        raise AssertionError("expected KeyError")
    except KeyError:
        pass


def test_dataset_scan_includes_internal_creates(chain: Blockchain) -> None:
    """Contracts deployed by contracts (factories) are catalogued too."""
    # Factory: CREATE an empty contract when poked.
    from repro.evm import opcodes as op
    from tests.evm.helpers import asm, push
    factory_runtime = asm(push(0), push(0), push(0), op.CREATE, op.POP, op.STOP)
    factory = chain.deploy(
        ALICE, stdlib.raw_deploy_init(factory_runtime)).created_address
    receipt = chain.transact(BOB, factory, b"")
    assert receipt.success
    assert receipt.internal_creates
    dataset = ContractDataset.scan_chain(chain)
    created = receipt.internal_creates[0].new_address
    assert created in dataset
