"""§7 landscape analytics: the data behind Figures 2/4/5/6 and Tables 3/4.

Each function turns a :class:`~repro.core.report.LandscapeReport` (plus the
chain metadata) into exactly the series/rows the corresponding figure or
table plots, so the benchmark harnesses only format output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.chain.explorer import SourceRegistry
from repro.chain.node import ArchiveNode
from repro.core.report import ContractAnalysis, LandscapeReport
from repro.core.standards import ProxyStandard
from repro.evm.state import EMPTY_CODE_HASH

YEARS = tuple(range(2015, 2024))

# Figure 2 / Figure 4 availability quadrants.
SOURCE_AND_TX = "source+tx"
SOURCE_ONLY = "source-only"
TX_ONLY = "tx-only"
HIDDEN = "hidden"

QUADRANTS = (SOURCE_ONLY, SOURCE_AND_TX, TX_ONLY, HIDDEN)


def quadrant_of(analysis: ContractAnalysis) -> str:
    if analysis.has_source and analysis.has_transactions:
        return SOURCE_AND_TX
    if analysis.has_source:
        return SOURCE_ONLY
    if analysis.has_transactions:
        return TX_ONLY
    return HIDDEN


# --------------------------------------------------------------- Figure 2
def figure2_accumulated_contracts(
        report: LandscapeReport) -> dict[int, dict[str, int]]:
    """Cumulative alive contracts per year, split by availability quadrant."""
    yearly: dict[int, Counter] = {year: Counter() for year in YEARS}
    for analysis in report.analyses.values():
        year = analysis.deploy_year
        if year is None or year not in yearly:
            continue
        yearly[year][quadrant_of(analysis)] += 1

    accumulated: dict[int, dict[str, int]] = {}
    running = Counter()
    for year in YEARS:
        running += yearly[year]
        accumulated[year] = {quadrant: running.get(quadrant, 0)
                             for quadrant in QUADRANTS}
    return accumulated


# --------------------------------------------------------------- Figure 4
PAIR_BOTH_SOURCE = "both-source"
PAIR_LOGIC_SOURCE = "only-logic-source"
PAIR_PROXY_SOURCE = "only-proxy-source"
PAIR_NO_SOURCE = "no-source"

PAIR_CLASSES = (PAIR_BOTH_SOURCE, PAIR_LOGIC_SOURCE,
                PAIR_PROXY_SOURCE, PAIR_NO_SOURCE)


def figure4_pair_availability(report: LandscapeReport, node: ArchiveNode,
                              registry: SourceRegistry) -> dict[int, dict[str, int]]:
    """Cumulative proxy/logic pairs per year by source availability."""
    yearly: dict[int, Counter] = {year: Counter() for year in YEARS}
    for analysis in report.analyses.values():
        if not analysis.is_proxy or analysis.logic_history is None:
            continue
        year = analysis.deploy_year
        if year is None or year not in yearly:
            continue
        proxy_has_source = analysis.has_source
        for logic in analysis.logic_history.logic_addresses:
            logic_has_source = registry.resolve(
                logic, node.get_code_hash(logic)) is not None
            if proxy_has_source and logic_has_source:
                pair_class = PAIR_BOTH_SOURCE
            elif logic_has_source:
                pair_class = PAIR_LOGIC_SOURCE
            elif proxy_has_source:
                pair_class = PAIR_PROXY_SOURCE
            else:
                pair_class = PAIR_NO_SOURCE
            yearly[year][pair_class] += 1

    accumulated: dict[int, dict[str, int]] = {}
    running = Counter()
    for year in YEARS:
        running += yearly[year]
        accumulated[year] = {pair_class: running.get(pair_class, 0)
                             for pair_class in PAIR_CLASSES}
    return accumulated


# ---------------------------------------------------------------- Table 3
@dataclass(slots=True)
class CollisionsByYear:
    """Table 3's rows plus the duplicate-share headline."""

    function_by_year: dict[int, int] = field(default_factory=dict)
    storage_by_year: dict[int, int] = field(default_factory=dict)
    duplicate_function_collisions: int = 0
    total_function_collisions: int = 0

    @property
    def duplicate_share(self) -> float:
        if not self.total_function_collisions:
            return 0.0
        return self.duplicate_function_collisions / self.total_function_collisions


def table3_collisions_by_year(report: LandscapeReport) -> CollisionsByYear:
    result = CollisionsByYear(
        function_by_year={year: 0 for year in YEARS},
        storage_by_year={year: 0 for year in YEARS},
    )
    code_hash_counts = Counter(
        analysis.code_hash for analysis in report.analyses.values()
        if analysis.is_proxy and analysis.has_function_collision)
    for analysis in report.analyses.values():
        year = analysis.deploy_year
        if year is None or year not in result.function_by_year:
            continue
        if analysis.has_function_collision:
            result.function_by_year[year] += 1
            result.total_function_collisions += 1
            if code_hash_counts[analysis.code_hash] > 1:
                result.duplicate_function_collisions += 1
        if analysis.has_storage_collision:
            result.storage_by_year[year] += 1
    return result


# --------------------------------------------------------------- Figure 5
@dataclass(slots=True)
class DuplicateCensus:
    """Figure 5: duplicate-count distribution for proxies and logics."""

    proxy_duplicate_counts: list[int] = field(default_factory=list)
    logic_duplicate_counts: list[int] = field(default_factory=list)

    @property
    def unique_proxies(self) -> int:
        return len(self.proxy_duplicate_counts)

    @property
    def unique_logics(self) -> int:
        return len(self.logic_duplicate_counts)

    @property
    def total_proxies(self) -> int:
        return sum(self.proxy_duplicate_counts)

    def top_proxy_share(self, top: int = 3) -> float:
        if not self.proxy_duplicate_counts:
            return 0.0
        return sum(self.proxy_duplicate_counts[:top]) / self.total_proxies


def figure5_duplicates(report: LandscapeReport,
                       node: ArchiveNode) -> DuplicateCensus:
    proxy_hashes = Counter()
    logic_hashes = Counter()
    logic_addresses: set[bytes] = set()
    for analysis in report.analyses.values():
        if not analysis.is_proxy:
            continue
        proxy_hashes[analysis.code_hash] += 1
        if analysis.logic_history is None:
            continue
        logic_addresses.update(analysis.logic_history.logic_addresses)
    # Each *distinct logic contract* counts once; duplication is then
    # measured across those contracts' bytecodes (Fig. 5b's population).
    for logic in logic_addresses:
        code_hash = node.get_code_hash(logic)
        if code_hash != EMPTY_CODE_HASH:
            logic_hashes[code_hash] += 1
    return DuplicateCensus(
        proxy_duplicate_counts=sorted(proxy_hashes.values(), reverse=True),
        logic_duplicate_counts=sorted(logic_hashes.values(), reverse=True),
    )


# ---------------------------------------------------------------- Table 4
def table4_standards(report: LandscapeReport) -> dict[str, tuple[int, float]]:
    """Standards census with (count, share-of-proxies) per row."""
    census = report.standards_census()
    total = sum(census.values())
    rows: dict[str, tuple[int, float]] = {}
    for standard in (ProxyStandard.EIP1167, ProxyStandard.EIP1822,
                     ProxyStandard.EIP1967, ProxyStandard.OTHER):
        count = census.get(standard, 0)
        rows[standard.value] = (count, count / total if total else 0.0)
    return rows


# --------------------------------------------------------------- Figure 6
@dataclass(slots=True)
class UpgradeCensus:
    """Figure 6: upgrade-count histogram and the headline statistics."""

    histogram: dict[int, int] = field(default_factory=dict)
    total_upgrade_events: int = 0
    upgraded_proxies: int = 0
    total_proxies: int = 0

    @property
    def never_upgraded_share(self) -> float:
        if not self.total_proxies:
            return 0.0
        return 1.0 - self.upgraded_proxies / self.total_proxies

    @property
    def mean_logic_contracts(self) -> float:
        """Upgrade events per *upgraded* proxy.

        This is the paper's "1.32 associated logic contracts on average":
        68,804 upgrade events over 51,925 upgraded proxies = 1.325.
        """
        if not self.upgraded_proxies:
            return 0.0
        return self.total_upgrade_events / self.upgraded_proxies


def figure6_upgrades(report: LandscapeReport) -> UpgradeCensus:
    census = UpgradeCensus()
    for analysis in report.analyses.values():
        if not analysis.is_proxy or analysis.logic_history is None:
            continue
        census.total_proxies += 1
        upgrades = analysis.logic_history.upgrade_count
        census.histogram[upgrades] = census.histogram.get(upgrades, 0) + 1
        census.total_upgrade_events += upgrades
        if upgrades:
            census.upgraded_proxies += 1
    return census
