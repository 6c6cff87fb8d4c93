"""Table 1 — tool coverage matrix.

For each (source × transaction) availability quadrant, deploy a genuine
proxy and check which tools can classify it; for collisions, check which
tools can detect the honeypot (function) and Audius (storage) pairs with
and without source.  Regenerates the paper's ✓-matrix from actual tool
runs, not assertions.
"""

from __future__ import annotations

import pytest

from repro.baselines.crush import Crush
from repro.baselines.etherscan_like import EtherscanVerifier
from repro.baselines.salehi import SalehiReplay
from repro.baselines.slither_like import SlitherKeyword
from repro.baselines.uschunt import USCHunt
from repro.chain.blockchain import Blockchain
from repro.chain.explorer import SourceRegistry
from repro.chain.node import ArchiveNode
from repro.core.function_collision import FunctionCollisionDetector
from repro.core.proxy_detector import ProxyDetector
from repro.core.storage_collision import StorageCollisionDetector
from repro.lang import compile_contract, contract_source_of, stdlib

from conftest import emit

ALICE = b"\xaa" * 20
BOB = b"\xbb" * 20


def _build_quadrant_world():
    """Four storage proxies, one per availability quadrant, plus collision
    pairs with and without source."""
    chain = Blockchain()
    chain.fund(ALICE, 10 ** 24)
    chain.fund(BOB, 10 ** 24)
    registry = SourceRegistry()
    node = ArchiveNode(chain)

    def deploy(contract):
        receipt = chain.deploy(ALICE, compile_contract(contract).init_code)
        assert receipt.success
        return receipt.created_address

    logic = deploy(stdlib.simple_wallet("Logic", ALICE))
    quadrants = {}
    for has_source in (True, False):
        for has_tx in (True, False):
            name = f"P{'S' if has_source else 'x'}{'T' if has_tx else 'x'}"
            contract = stdlib.storage_proxy(name, logic, ALICE)
            address = deploy(contract)
            if has_source:
                registry.verify(address, contract_source_of(contract),
                                compile_contract(contract).runtime_code)
            if has_tx:
                chain.transact(BOB, address, b"\xf0\x0d\xba\xbe" + b"\x00" * 32)
            quadrants[(has_source, has_tx)] = address

    # Collision pairs: honeypot (function) and audius (storage), one copy
    # verified, one hidden.
    pairs = {}
    for label, with_source in (("src", True), ("nosrc", False)):
        hp_logic_ast = stdlib.honeypot_logic(f"G{label}")
        hp_logic = deploy(hp_logic_ast)
        hp_ast = stdlib.honeypot_proxy(f"HP{label}", hp_logic, ALICE)
        hp = deploy(hp_ast)
        au_logic_ast = stdlib.audius_logic(f"AL{label}")
        au_logic = deploy(au_logic_ast)
        au_ast = stdlib.audius_proxy(f"AP{label}", au_logic, ALICE)
        au = deploy(au_ast)
        chain.transact(BOB, hp, b"\xf0\x0d\xba\xbe")
        chain.transact(BOB, au, b"\xf0\x0d\xba\xbe")
        if with_source:
            for address, contract in ((hp, hp_ast), (hp_logic, hp_logic_ast),
                                      (au, au_ast), (au_logic, au_logic_ast)):
                registry.verify(address, contract_source_of(contract),
                                compile_contract(contract).runtime_code)
        pairs[label] = {"function": (hp, hp_logic), "storage": (au, au_logic)}
    return chain, node, registry, quadrants, pairs


@pytest.fixture(scope="module")
def world():
    return _build_quadrant_world()


def _mark(flag: bool) -> str:
    return "v" if flag else "."


def test_table1_coverage(benchmark, world) -> None:
    chain, node, registry, quadrants, pairs = world

    proxion_detector = ProxyDetector(chain.state, chain.block_context())
    benchmark(lambda: [proxion_detector.check(a) for a in quadrants.values()])

    tools = {
        "EtherScan": lambda a: EtherscanVerifier(node).is_proxy(a),
        "Slither": lambda a: bool(SlitherKeyword(node, registry).is_proxy(a)),
        "Salehi": lambda a: SalehiReplay(node).is_proxy(a),
        "USCHunt": lambda a: USCHunt(node, registry).check(a).is_proxy,
        "CRUSH": lambda a: a in Crush(node).mine_pairs([a]).proxies,
        "Proxion": lambda a: proxion_detector.check(a).is_proxy,
    }

    lines = ["Smart-contract coverage (proxy detected per availability "
             "quadrant: src+tx / src-only / tx-only / hidden)",
             f"{'tool':10s}  src+tx  src-only  tx-only  hidden"]
    for tool_name, check in tools.items():
        row = [check(quadrants[(s, t)])
               for (s, t) in ((True, True), (True, False),
                              (False, True), (False, False))]
        lines.append(f"{tool_name:10s}  {_mark(row[0]):^6s}  {_mark(row[1]):^8s}"
                     f"  {_mark(row[2]):^7s}  {_mark(row[3]):^6s}")

    # Collision coverage.
    function_detector = FunctionCollisionDetector(registry)
    storage_detector = StorageCollisionDetector(registry, chain.state,
                                                chain.block_context())
    uschunt = USCHunt(node, registry)
    crush = Crush(node)

    def uschunt_function(pair):
        return bool(uschunt.function_collisions(*pair))

    def uschunt_storage(pair):
        return bool(uschunt.storage_collisions(*pair))

    def crush_storage(pair):
        mined = crush.mine_pairs([pair[0]])
        return pair in mined.pairs and crush.storage_collisions(
            *pair).has_collision

    def code_hashes(pair):
        return {"proxy_hash": node.get_code_hash(pair[0]),
                "logic_hash": node.get_code_hash(pair[1])}

    def proxion_function(pair):
        return function_detector.detect(
            node.get_code(pair[0]), node.get_code(pair[1]),
            pair[0], pair[1], **code_hashes(pair)).has_collision

    def proxion_storage(pair):
        return storage_detector.detect(
            node.get_code(pair[0]), node.get_code(pair[1]),
            pair[0], pair[1], verify_exploits=False,
            **code_hashes(pair)).has_collision

    lines.append("")
    lines.append("Collision coverage (detected: function/storage × "
                 "with/without source)")
    lines.append(f"{'tool':10s}  fn+src  fn-nosrc  st+src  st-nosrc")
    for tool_name, fn_check, st_check in (
            ("USCHunt", uschunt_function, uschunt_storage),
            ("CRUSH", None, crush_storage),
            ("Proxion", proxion_function, proxion_storage)):
        fn_src = fn_check(pairs["src"]["function"]) if fn_check else False
        fn_nosrc = fn_check(pairs["nosrc"]["function"]) if fn_check else False
        st_src = st_check(pairs["src"]["storage"])
        st_nosrc = st_check(pairs["nosrc"]["storage"])
        lines.append(f"{tool_name:10s}  {_mark(fn_src):^6s}  {_mark(fn_nosrc):^8s}"
                     f"  {_mark(st_src):^6s}  {_mark(st_nosrc):^8s}")

    text = "\n".join(lines)
    emit("table1_coverage", text)

    # The paper's novel cells: only ProxioN covers the hidden quadrant and
    # bytecode-only function collisions.
    assert proxion_detector.check(quadrants[(False, False)]).is_proxy
    assert proxion_function(pairs["nosrc"]["function"])
    assert proxion_storage(pairs["nosrc"]["storage"])
    assert not uschunt_function(pairs["nosrc"]["function"])
