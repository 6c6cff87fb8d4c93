"""End-to-end: full sweeps scored against ground truth; attack scenarios."""

from __future__ import annotations

import pytest

from repro.baselines.crush import Crush
from repro.baselines.salehi import SalehiReplay
from repro.baselines.uschunt import USCHunt
from repro.core.pipeline import Proxion, ProxionOptions
from repro.core.report import LandscapeReport
from repro.corpus.generator import Landscape


@pytest.fixture(scope="module")
def sweep(landscape: Landscape) -> LandscapeReport:
    proxion = Proxion(landscape.node, registry=landscape.registry, dataset=landscape.dataset)
    return proxion.analyze_all()


def test_proxy_detection_scores_against_truth(landscape: Landscape,
                                              sweep: LandscapeReport) -> None:
    tp = fp = fn = 0
    diamond_misses = 0
    for address, analysis in sweep.analyses.items():
        truth = landscape.truths[address]
        if truth.is_proxy and analysis.is_proxy:
            tp += 1
        elif analysis.is_proxy and not truth.is_proxy:
            fp += 1
        elif truth.is_proxy and not analysis.is_proxy:
            fn += 1
            if truth.kind == "diamond":
                diamond_misses += 1
    assert fp == 0                      # library users never misclassified
    assert fn == diamond_misses         # only the documented §8.1 limitation
    assert tp > 0.9 * len(landscape.true_proxies())


def test_every_standard_label_matches(landscape: Landscape,
                                      sweep: LandscapeReport) -> None:
    for address, analysis in sweep.analyses.items():
        truth = landscape.truths[address]
        if analysis.is_proxy and truth.is_proxy and truth.standard:
            if truth.kind == "minimal_clone" or truth.kind == "minimal_unique":
                assert analysis.standard.value == "EIP-1167"
            elif truth.kind in ("eip1967", "transparent"):
                assert analysis.standard.value == "EIP-1967"
            elif truth.kind == "eip1822":
                assert analysis.standard.value == "EIP-1822"
            elif truth.kind in ("custom_storage", "honeypot_pair",
                                "audius_pair", "wyvern_clone"):
                assert analysis.standard.value == "Others"


def test_logic_recovery_matches_truth(landscape: Landscape,
                                      sweep: LandscapeReport) -> None:
    for address, analysis in sweep.analyses.items():
        truth = landscape.truths[address]
        if not (truth.is_proxy and analysis.is_proxy):
            continue
        if truth.kind == "diamond":
            continue
        recovered = analysis.logic_history.logic_addresses
        assert set(truth.logic_addresses) <= set(recovered)


def test_collision_detection_matches_labels(landscape: Landscape,
                                            sweep: LandscapeReport) -> None:
    for address, analysis in sweep.analyses.items():
        truth = landscape.truths[address]
        if truth.expect_function_collision:
            assert analysis.has_function_collision, truth.kind
        if truth.expect_storage_collision:
            assert analysis.has_storage_collision, truth.kind
        if truth.storage_exploitable:
            assert analysis.has_verified_storage_exploit, truth.kind


def test_hidden_proxies_found_only_by_proxion(landscape: Landscape,
                                              sweep: LandscapeReport) -> None:
    """The paper's headline (§6.2): ProxioN reaches contracts that have
    neither source nor transactions; tx-history and source tools cannot."""
    # "Hidden" uses *effective* source availability: the §7.1 bytecode-hash
    # propagation means an unverified clone of a verified contract is not
    # hidden from source-based tools.
    hidden_true_proxies = [
        address for address, truth in landscape.truths.items()
        if truth.is_proxy and truth.kind != "diamond"
        and landscape.registry.resolve(
            address, landscape.chain.state.get_code_hash(address)) is None
        and not landscape.chain.has_transactions(address)]
    assert hidden_true_proxies, "landscape should contain hidden proxies"

    found_by_proxion = sum(
        1 for address in hidden_true_proxies
        if sweep.analyses[address].is_proxy)
    assert found_by_proxion == len(hidden_true_proxies)

    crush = Crush(landscape.node).mine_pairs(hidden_true_proxies)
    assert not crush.proxies

    salehi = SalehiReplay(landscape.node)
    assert not salehi.find_proxies(hidden_true_proxies)

    uschunt = USCHunt(landscape.node, landscape.registry)
    assert not uschunt.find_proxies(hidden_true_proxies)


def test_proxion_finds_more_than_every_baseline(landscape: Landscape,
                                                sweep: LandscapeReport) -> None:
    addresses = landscape.addresses()
    proxion_found = {a for a in addresses if sweep.analyses[a].is_proxy}
    crush_found = Crush(landscape.node).mine_pairs(addresses).proxies
    uschunt_found = USCHunt(landscape.node, landscape.registry).find_proxies(
        addresses)
    salehi_found = SalehiReplay(landscape.node).find_proxies(addresses)
    assert len(proxion_found) > len(crush_found)
    assert len(proxion_found) > len(uschunt_found)
    assert len(proxion_found) > len(salehi_found)


def test_diamond_extension_closes_the_gap(landscape: Landscape,
                                          sweep: LandscapeReport) -> None:
    diamonds = landscape.contracts_of_kind("diamond")
    if not diamonds:
        pytest.skip("no diamonds at this landscape size")
    extended = Proxion(landscape.node, registry=landscape.registry, dataset=landscape.dataset,
                       options=ProxionOptions(detect_diamonds=True))
    for diamond in diamonds:
        assert not sweep.analyses[diamond].is_proxy       # default misses
        assert extended.check_proxy(diamond).is_proxy     # §8.2 finds


def test_sweep_throughput_counts(sweep: LandscapeReport,
                                 landscape: Landscape) -> None:
    assert len(sweep) == len(landscape.truths)
    assert sweep.proxy_check_cache_hits > 0  # clones deduped
    assert 0 <= sweep.emulation_failure_rate() < 0.1
