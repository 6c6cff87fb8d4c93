"""Table 2 scoring: collision-detection accuracy against ground truth.

Runs ProxioN, USCHunt and CRUSH over the labelled pair corpus
(:mod:`repro.corpus.ground_truth`) through each tool's *own* pipeline —
USCHunt's compile-then-recognize path, CRUSH's transaction-history mining,
ProxioN's emulation-gated detection — and scores verdicts into confusion
matrices.

Two methodologies are supported:

* ``"all"`` — score every labelled pair (the full synthetic ground truth);
* ``"union"`` — the paper's §6.3 methodology: only pairs *flagged by at
  least one tool* are manually inspected and scored, so the universe is
  the union of detections (plus nothing else — positives no tool finds
  are invisible to the paper's protocol, exactly as on mainnet).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.crush import Crush
from repro.baselines.uschunt import USCHunt
from repro.corpus.ground_truth import AccuracyCorpus, LabelledPair
from repro.core.function_collision import FunctionCollisionDetector
from repro.core.proxy_detector import ProxyDetector
from repro.core.storage_collision import StorageCollisionDetector
from repro.errors import ConfigurationError

PairKey = tuple[bytes, bytes]


@dataclass(slots=True)
class ConfusionMatrix:
    """TP/FP/TN/FN with the derived accuracy, as Table 2 reports."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def record(self, predicted: bool, actual: bool) -> None:
        if predicted and actual:
            self.tp += 1
        elif predicted and not actual:
            self.fp += 1
        elif not predicted and actual:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    def row(self) -> str:
        return (f"TP={self.tp:<4d} FP={self.fp:<4d} TN={self.tn:<4d} "
                f"FN={self.fn:<4d} accuracy={self.accuracy:.1%}")


# ------------------------------------------------------- per-tool verdicts
def _code_hashes(corpus: AccuracyCorpus,
                 pair: LabelledPair) -> dict[str, bytes]:
    """The pair's recorded codehashes, as the detectors' keyword args."""
    return {"proxy_hash": corpus.node.get_code_hash(pair.proxy),
            "logic_hash": corpus.node.get_code_hash(pair.logic)}


def proxion_storage_verdicts(corpus: AccuracyCorpus) -> dict[PairKey, bool]:
    """ProxioN's full storage pipeline: proxy identification gates the
    collision check, so library pairs and emulation failures drop out."""
    detector = StorageCollisionDetector(
        corpus.registry, corpus.chain.state, corpus.chain.block_context())
    proxy_detector = ProxyDetector(corpus.chain.state,
                                   corpus.chain.block_context())
    verdicts: dict[PairKey, bool] = {}
    for pair in corpus.pairs:
        if not proxy_detector.check(pair.proxy).is_proxy:
            verdicts[(pair.proxy, pair.logic)] = False
            continue
        report = detector.detect(
            corpus.node.get_code(pair.proxy), corpus.node.get_code(pair.logic),
            pair.proxy, pair.logic, verify_exploits=False,
            **_code_hashes(corpus, pair))
        verdicts[(pair.proxy, pair.logic)] = report.has_collision
    return verdicts


def proxion_function_verdicts(corpus: AccuracyCorpus) -> dict[PairKey, bool]:
    """ProxioN's function pipeline, gated on proxy identification (an
    emulation failure forfeits the pair — §6.3's three FNs)."""
    detector = FunctionCollisionDetector(corpus.registry)
    proxy_detector = ProxyDetector(corpus.chain.state,
                                   corpus.chain.block_context())
    verdicts: dict[PairKey, bool] = {}
    for pair in corpus.pairs:
        if not proxy_detector.check(pair.proxy).is_proxy:
            verdicts[(pair.proxy, pair.logic)] = False
            continue
        report = detector.detect(
            corpus.node.get_code(pair.proxy), corpus.node.get_code(pair.logic),
            pair.proxy, pair.logic, **_code_hashes(corpus, pair))
        verdicts[(pair.proxy, pair.logic)] = report.has_collision
    return verdicts


def uschunt_storage_verdicts(corpus: AccuracyCorpus) -> dict[PairKey, bool]:
    tool = USCHunt(corpus.node, corpus.registry)
    return {
        (pair.proxy, pair.logic):
            bool(tool.storage_collisions(pair.proxy, pair.logic))
        for pair in corpus.pairs
    }


def uschunt_function_verdicts(corpus: AccuracyCorpus) -> dict[PairKey, bool]:
    tool = USCHunt(corpus.node, corpus.registry)
    return {
        (pair.proxy, pair.logic):
            bool(tool.function_collisions(pair.proxy, pair.logic))
        for pair in corpus.pairs
    }


def crush_storage_verdicts(corpus: AccuracyCorpus) -> dict[PairKey, bool]:
    """CRUSH's own pipeline: pairs are mined from transaction history
    (library delegatecalls included — its FP source), then storage-checked."""
    tool = Crush(corpus.node)
    mined = tool.mine_pairs([pair.proxy for pair in corpus.pairs])
    verdicts: dict[PairKey, bool] = {}
    for pair in corpus.pairs:
        key = (pair.proxy, pair.logic)
        if key not in mined.pairs:
            verdicts[key] = False
            continue
        report = tool.storage_collisions(pair.proxy, pair.logic)
        verdicts[key] = report.has_collision
    return verdicts


# --------------------------------------------------------------- assembly
def _score(pairs: list[LabelledPair], verdicts: dict[PairKey, bool],
           actual_of, universe: set[PairKey] | None) -> ConfusionMatrix:
    matrix = ConfusionMatrix()
    for pair in pairs:
        key = (pair.proxy, pair.logic)
        if universe is not None and key not in universe:
            continue
        matrix.record(verdicts.get(key, False), actual_of(pair))
    return matrix


def table2(corpus: AccuracyCorpus,
           methodology: str = "all") -> dict[str, dict[str, ConfusionMatrix]]:
    """The full Table 2: tool × collision-type confusion matrices."""
    if methodology not in ("all", "union"):
        raise ConfigurationError(f"unknown methodology: {methodology}")

    storage_verdicts = {
        "USCHunt": uschunt_storage_verdicts(corpus),
        "CRUSH": crush_storage_verdicts(corpus),
        "Proxion": proxion_storage_verdicts(corpus),
    }
    function_verdicts = {
        "USCHunt": uschunt_function_verdicts(corpus),
        "Proxion": proxion_function_verdicts(corpus),
    }

    storage_universe = function_universe = None
    if methodology == "union":
        storage_universe = {
            key for verdicts in storage_verdicts.values()
            for key, flagged in verdicts.items() if flagged}
        function_universe = {
            key for verdicts in function_verdicts.values()
            for key, flagged in verdicts.items() if flagged}

    return {
        "storage": {
            tool: _score(corpus.pairs, verdicts,
                         lambda pair: pair.storage_collision,
                         storage_universe)
            for tool, verdicts in storage_verdicts.items()
        },
        "function": {
            tool: _score(corpus.pairs, verdicts,
                         lambda pair: pair.function_collision,
                         function_universe)
            for tool, verdicts in function_verdicts.items()
        },
    }


# Backwards-compatible single-matrix entry points.
def score_proxion_storage(corpus: AccuracyCorpus) -> ConfusionMatrix:
    return _score(corpus.pairs, proxion_storage_verdicts(corpus),
                  lambda pair: pair.storage_collision, None)


def score_proxion_function(corpus: AccuracyCorpus) -> ConfusionMatrix:
    return _score(corpus.pairs, proxion_function_verdicts(corpus),
                  lambda pair: pair.function_collision, None)


def score_uschunt_storage(corpus: AccuracyCorpus) -> ConfusionMatrix:
    return _score(corpus.pairs, uschunt_storage_verdicts(corpus),
                  lambda pair: pair.storage_collision, None)


def score_uschunt_function(corpus: AccuracyCorpus) -> ConfusionMatrix:
    return _score(corpus.pairs, uschunt_function_verdicts(corpus),
                  lambda pair: pair.function_collision, None)


def score_crush_storage(corpus: AccuracyCorpus) -> ConfusionMatrix:
    return _score(corpus.pairs, crush_storage_verdicts(corpus),
                  lambda pair: pair.storage_collision, None)
