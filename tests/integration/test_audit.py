"""Audited sweeps: evidence completeness, parallel parity, checkpoints.

The contract under test: every verdict the pipeline emits must be backed
by evidence in the trail — a proxy verdict cites its matched pattern and
the storage reads behind it, a recovered logic history cites Algorithm 1
search steps, a collision cites the selector/slot observations that
produced it.  ``tools/check_explain.py`` enforces the same laws in CI
over a real audited sweep directory.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.pipeline import Proxion
from repro.obs.provenance import (
    AuditDir,
    DEDUP_HIT,
    FUNCTION_COLLISION,
    LOGIC_HISTORY,
    PROXY_PATTERN,
    SEARCH_STEP,
    SECTION_COLLISIONS,
    SECTION_LOGIC,
    SECTION_PROXY,
    STORAGE_COLLISION,
)


@pytest.fixture(scope="module")
def audited(landscape, tmp_path_factory):
    audit = AuditDir(str(tmp_path_factory.mktemp("audit")))
    proxion = Proxion(landscape.node, registry=landscape.registry,
                      dataset=landscape.dataset, audit=audit)
    report = proxion.analyze_all()
    return report, audit


def _kinds(trail):
    kinds = set()
    for section in trail.sections:
        for node in section.walk():
            kinds.add(node.kind)
    return kinds


def test_every_analysis_has_an_evidence_file_and_digest(audited) -> None:
    report, audit = audited
    recorded = set(audit.addresses())
    assert set(report.analyses) <= recorded
    for analysis in report.analyses.values():
        digest = analysis.evidence_digest
        assert digest is not None
        assert digest == audit.read(analysis.address).digest()


def test_proxy_verdicts_cite_pattern_evidence(audited) -> None:
    report, audit = audited
    proxies = report.proxies()
    assert proxies
    for analysis in proxies:
        kinds = _kinds(audit.read(analysis.address))
        assert SECTION_PROXY in kinds
        # Either the pattern was classified here, or the verdict was
        # transferred from the bytecode-dedup cache — both are evidence.
        assert PROXY_PATTERN in kinds or DEDUP_HIT in kinds, (
            f"proxy 0x{analysis.address.hex()} has no pattern evidence")


def test_recovered_logic_cites_search_steps(audited) -> None:
    report, audit = audited
    searched = [analysis for analysis in report.analyses.values()
                if analysis.logic_history
                and analysis.logic_history.api_calls_used > 0]
    assert searched
    for analysis in searched:
        kinds = _kinds(audit.read(analysis.address))
        assert SECTION_LOGIC in kinds and LOGIC_HISTORY in kinds
        assert SEARCH_STEP in kinds, (
            f"0x{analysis.address.hex()} recovered logic without "
            f"Algorithm 1 step evidence")


def test_explain_gate_counts_the_same_searches_after_serialization(
        audited) -> None:
    """``tools/check_explain.py`` sees analyses that came back from worker
    processes, which carry no ``api_calls_used``.  Its search predicate
    must pick exactly the analyses that spent getStorageAt calls, before
    and after a serialization round-trip."""
    from repro.landscape.serialize import analysis_to_dict, dict_to_analysis
    path = Path(__file__).resolve().parents[2] / "tools" / "check_explain.py"
    spec = importlib.util.spec_from_file_location("check_explain", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)

    report, _ = audited
    spent = {address for address, analysis in report.analyses.items()
             if analysis.logic_history
             and analysis.logic_history.api_calls_used > 0}
    assert spent
    assert spent == {address for address, analysis in report.analyses.items()
                     if gate.ran_logic_search(analysis)}
    assert spent == {address for address, analysis in report.analyses.items()
                     if gate.ran_logic_search(
                         dict_to_analysis(analysis_to_dict(analysis)))}


def test_collisions_cite_selector_or_slot_evidence(audited) -> None:
    report, audit = audited
    flagged = [analysis for analysis in report.analyses.values()
               if analysis.has_function_collision
               or analysis.has_storage_collision]
    assert flagged
    for analysis in flagged:
        kinds = _kinds(audit.read(analysis.address))
        assert SECTION_COLLISIONS in kinds
        if analysis.has_function_collision:
            assert FUNCTION_COLLISION in kinds
        if analysis.has_storage_collision:
            assert STORAGE_COLLISION in kinds


def test_audited_report_matches_unaudited(audited, landscape) -> None:
    from repro.landscape.serialize import report_to_dict
    report, _ = audited
    plain = Proxion(landscape.node, registry=landscape.registry,
                    dataset=landscape.dataset).analyze_all()
    audited_dict = report_to_dict(report)
    plain_dict = report_to_dict(plain)
    for record in audited_dict["contracts"]:
        record.pop("evidence", None)
    assert audited_dict == plain_dict
