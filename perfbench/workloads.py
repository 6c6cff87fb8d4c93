"""The four benchmark workloads, driven through ``repro``'s public API.

Every workload has the same shape: ``setup(seed)`` builds one input world
from a seed (timed, repeated :data:`SETUP_REPEATS` times for ``setup_s``),
``prepare(worlds)`` turns the worlds into the run's state,
``measure(state, seconds)`` runs the timed phase and returns a
:class:`Phase`, ``check(state, phase)`` returns the correctness problems
found (empty when every output is right) and ``layers(state)`` the
workload's own per-layer figures.  Each workload counts its own unit of
work, so the generic end-to-end metrics read as follows:

========  ===========================  ====================================
workload  throughput item              latency sample
========  ===========================  ====================================
sweep     contract analysed+committed  one contract: previous commit -> its
                                       commit, inside ``analyze_all``
serve     query answered (closed-loop  one query: time it was due -> reply
          saturation phase)            (open loop at the top offered rate)
follow    contract analysed+committed  one block: sealed -> its deployments
          by the chain follower        committed by ``DeploymentMonitor``
mine      selector-mining attempt      one mining job: seconds per attempt
========  ===========================  ====================================

Sizes are fixed constants (documented in ``perfbench/README.md``); only the
seed varies between runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3

SWEEP_TOTAL = 300          # contracts per generated landscape
SERVE_TOTAL = 250
SERVE_SETTLED_SHARE = 0.6
SERVE_MISS_EVERY = 50      # every 50th open-loop query is an unsettled address
SERVE_ZIPF_S = 0.8
SERVE_RATES = (100, 200, 400)          # fixed offered rates, queries/s
SERVE_RATE_SHARES = (0.05, 0.05, 0.55)  # of the timed phase, per rate
SERVE_CONNECTIONS = 2
SERVE_LATENCY_LIMIT_MS = 25.0          # p99 limit for serve.max_qps
SERVE_SATURATION_SHARE = 0.35          # of the timed phase, closed loop
SERVE_LATENCY_WINDOW_S = 1.0           # latency percentiles per window
SERVE_RATE_WINDOW_S = 0.5              # closed-loop throughput per window
FOLLOW_TOTAL = 250
FOLLOW_REORGS = 3                      # reorgs per replay pass
FOLLOW_MAX_DEPTH = 6                   # block records, inside the 64 ring
MINE_TOTAL = 60
MINE_PREFIX_BITS = 12
MINE_MAX_ATTEMPTS = 1 << 17            # a 12-bit job fails with p = e^-32


@dataclass
class Phase:
    """What one timed phase did.

    ``elapsed_s`` is the time the throughput items took; ``wall_s`` is the
    whole timed phase (they differ only for serve, whose throughput comes
    from its closed-loop step alone).  Serve also splits its samples into
    windows of equal length, ``latency_windows`` (latency samples) and
    ``rate_windows`` (items per second), and reports medians over them, so
    a burst of interference from the host that spoils one window does not
    move its figures.
    """

    items: int = 0
    elapsed_s: float = 0.0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    latency_windows: list[list[float]] = field(default_factory=list)
    rate_windows: list[float] = field(default_factory=list)


def _more(phase: Phase, seconds: float, done: int, passes: int | None,
          round_size: int = 1) -> bool:
    """Whether a pass-based phase runs another pass: ``passes`` of them,
    or until ``seconds`` have passed and the round of ``round_size`` passes
    (one per input world, so every run weighs its worlds equally) is done."""
    if passes is not None:
        return done < passes
    return phase.elapsed_s < seconds or done % round_size != 0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(round(fraction * 1000)) * len(ordered) // 1000))
    return ordered[min(len(ordered), rank) - 1]


def latency(phase: Phase, fraction: float) -> float:
    """A phase's latency percentile: the median of its windows'
    percentiles when it has windows, else the percentile of all samples."""
    if phase.latency_windows:
        return statistics.median(percentile(window, fraction)
                                 for window in phase.latency_windows)
    return percentile(phase.latencies_s, fraction)


def throughput(phase: Phase) -> float:
    """Items per second: the median window's rate when the phase has rate
    windows, else items over elapsed time."""
    if phase.rate_windows:
        return statistics.median(phase.rate_windows)
    return phase.items / phase.elapsed_s if phase.elapsed_s else 0.0


def _digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def world_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th world a run builds from its ``--seed``."""
    return seed * 1009 + index


class Workdir:
    """Fresh store paths under the run's own scratch directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._count = 0
        os.makedirs(root, exist_ok=True)

    def store_path(self, tag: str) -> str:
        self._count += 1
        return os.path.join(self.root, f"{tag}-{self._count}.store")

    @staticmethod
    def store_bytes(path: str) -> int:
        return sum(os.path.getsize(path + suffix)
                   for suffix in ("", "-wal", "-shm")
                   if os.path.exists(path + suffix))

    @staticmethod
    def remove_store(path: str) -> None:
        for suffix in ("", "-wal", "-shm", "-journal"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _storage_probe_ratio(metrics) -> tuple[float, float]:
    """(getStorageAt calls, storage proxies) from the program's registry."""
    return (metrics.counter_total("logic_recovery.getstorageat_calls"),
            metrics.counter_total("logic_recovery.storage_proxies"))


# ---------------------------------------------------------------- sweep
class Workload:
    """Shared plumbing: the run's scratch directory and landscape timing."""

    name = ""

    def __init__(self, workdir: Workdir) -> None:
        self.workdir = workdir
        self.generate_s: list[float] = []

    def _generate(self, total: int, seed: int):
        from repro.corpus import generate_landscape

        started = clock()
        world = generate_landscape(total=total, seed=seed)
        self.generate_s.append(clock() - started)
        return world


class _CommitClock:
    """The pipeline's store binding, stamping the time of every commit.

    Passed through ``Proxion(store=...)``; everything else is delegated to
    the real binding, so the sweep does exactly what it does without it.
    """

    def __init__(self, binding, stamps: list[tuple[float, bool]]) -> None:
        self._binding = binding
        self._stamps = stamps

    def __getattr__(self, name):
        return getattr(self._binding, name)

    def record_analysis(self, analysis) -> None:
        self._binding.record_analysis(analysis)
        self._stamps.append((clock(), True))

    def record_failure(self, failure) -> None:
        self._binding.record_failure(failure)
        self._stamps.append((clock(), True))

    def record_skip(self, address) -> None:
        self._binding.record_skip(address)
        self._stamps.append((clock(), False))


class Sweep(Workload):
    """§7 batch survey: serial ``Proxion.analyze_all`` with a fresh store."""

    name = "sweep"

    def setup(self, seed: int):
        return self._generate(SWEEP_TOTAL, seed)

    def prepare(self, worlds: list) -> dict:
        return {"worlds": worlds, "passes": 0, "problems": [],
                "probe": (0.0, 0.0)}

    def measure(self, state: dict, seconds: float, recorder=None,
                passes: int | None = None) -> Phase:
        from repro.core import Proxion
        from repro.store import attach_store

        state.update(dedup={}, bytes=[])   # per-layer figures: last phase
        phase = Phase()
        done = 0
        while _more(phase, seconds, done, passes, len(state["worlds"])):
            done += 1
            world = state["worlds"][state["passes"] % len(state["worlds"])]
            state["passes"] += 1
            if recorder is not None:
                recorder.group = f"pass{state['passes']}"
            path = self.workdir.store_path("sweep")
            stamps: list[tuple[float, bool]] = []
            started = clock()
            binding = attach_store(path)
            try:
                proxion = Proxion(world.node, registry=world.registry,
                                  dataset=world.dataset,
                                  store=_CommitClock(binding, stamps))
                begun = clock()
                report = proxion.analyze_all()
            finally:
                binding.close()
            phase.elapsed_s += clock() - started
            previous = begun
            for stamp, analysed in stamps:
                if analysed:
                    phase.latencies_s.append(stamp - previous)
                previous = stamp
            analyses, failures = len(report.analyses), len(report.failures)
            phase.items += analyses
            phase.attempted += analyses + failures
            phase.failed += failures
            skips = sum(1 for _stamp, analysed in stamps if not analysed)
            deployments = len(world.dataset.addresses())
            if analyses + failures + skips != deployments:
                state["problems"].append(
                    f"pass {state['passes']}: {analyses} analyses + "
                    f"{failures} failures + {skips} skips != {deployments} "
                    f"deployments")
            for cache, hits, misses in (
                    ("proxy_check", report.proxy_check_cache_hits,
                     report.proxy_check_cache_misses),
                    ("function_collision", report.function_cache_hits,
                     report.function_cache_misses),
                    ("storage_collision", report.storage_cache_hits,
                     report.storage_cache_misses)):
                total = state["dedup"].setdefault(cache, [0, 0])
                total[0] += hits
                total[1] += hits + misses
            if analyses:
                state["bytes"].append(
                    Workdir.store_bytes(path) / analyses)
            Workdir.remove_store(path)
        phase.wall_s = phase.elapsed_s
        calls = proxies = 0.0
        for world in state["worlds"]:
            world_calls, world_proxies = _storage_probe_ratio(
                world.node.metrics)
            calls += world_calls
            proxies += world_proxies
        state["probe"] = (calls, proxies)
        return phase

    def check(self, state: dict, phase: Phase) -> list[str]:
        problems = list(state["problems"])
        if phase.failed:
            problems.append(f"{phase.failed} contracts quarantined")
        calls, proxies = state["probe"]
        per_proxy = calls / proxies if proxies else 0.0
        # §6.1 anchor: ~26 getStorageAt calls per storage proxy.
        if not 18.0 <= per_proxy <= 34.0:
            problems.append(f"getStorageAt per proxy {per_proxy:.1f}, "
                            f"expected ~26")
        return problems

    def layers(self, state: dict) -> dict[str, float]:
        calls, proxies = state["probe"]
        out = {"rpc.getstorageat_per_proxy":
               calls / proxies if proxies else 0.0,
               "store.bytes_per_contract":
               percentile(state["bytes"], 0.5)}
        for cache, (hits, total) in state["dedup"].items():
            out[f"core.dedup.{cache}.hit_ratio"] = hits / total if total else 0.0
        return out


# ---------------------------------------------------------------- serve
class Serve(Workload):
    """Point queries against an in-process ``ServeApp`` over a settled store."""

    name = "serve"

    def setup(self, seed: int) -> dict:
        from repro.core import Proxion
        from repro.store import attach_store

        world = self._generate(SERVE_TOTAL, seed)
        addresses = world.dataset.addresses()
        # Unsettled addresses are EIP-1167 clones whose bytecode is also
        # deployed at a settled address -- most new deployments are such
        # clones (§6.1) -- so every miss runs the same per-instance work
        # with warm hash-keyed facts, and p99 does not hinge on which rare
        # contract a seed happened to leave unsettled.
        by_code: dict[bytes, list[bytes]] = {}
        for address in addresses:
            by_code.setdefault(world.chain.state.get_code(address),
                               []).append(address)
        clones = [address for group in by_code.values()
                  for address in group[1:]
                  if world.truths[address].kind == "minimal_clone"]
        rng = random.Random(seed)
        wanted = int(len(addresses) * (1 - SERVE_SETTLED_SHARE))
        chosen = set(rng.sample(clones, min(wanted, len(clones))))
        settled = [address for address in addresses if address not in chosen]
        unsettled = [address for address in addresses if address in chosen]
        path = self.workdir.store_path("serve")
        with attach_store(path) as binding:
            report = Proxion(world.node, registry=world.registry,
                             dataset=world.dataset,
                             store=binding).analyze_all(addresses=settled)
        return {"world": world, "path": path, "report": report,
                "unsettled": unsettled, "seed": seed}

    def prepare(self, worlds: list) -> dict:
        from repro import api

        for spare in worlds[:-1]:
            Workdir.remove_store(spare["path"])
        state = worlds[-1]
        rng = random.Random(state["seed"] + 1)
        hits = ["0x" + address.hex() for address in state["report"].analyses]
        rng.shuffle(hits)
        weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S
                   for rank in range(len(hits))]
        # The repro.query/1 identity: a stored answer is byte-identical to
        # the batch sweep's analysis encoded with source "store".
        expected = {"0x" + address.hex(): _digest(api.encode(
                        api.answer_from_analysis(analysis, api.SOURCE_STORE)))
                    for address, analysis in state["report"].analyses.items()}
        state.update(rng=rng, hits=hits, weights=weights, expected=expected,
                     misses=["0x" + address.hex()
                             for address in state["unsettled"]],
                     fresh=[], answered=0, mismatched=0, refused=0)
        return state

    def _next_hits(self, state: dict, count: int) -> list[str]:
        return state["rng"].choices(state["hits"], weights=state["weights"],
                                    k=count)

    def measure(self, state: dict, seconds: float, recorder=None,
                passes: int | None = None) -> Phase:
        from repro.serve import ServeApp, ServeConfig

        steps = []
        for rate, share in zip(SERVE_RATES, SERVE_RATE_SHARES):
            addresses = self._next_hits(state, int(rate * seconds * share))
            for index in range(SERVE_MISS_EVERY - 1, len(addresses),
                               SERVE_MISS_EVERY):
                if not state["misses"]:
                    # Fewer misses would move p99 out of the miss
                    # population, so a run this long is refused.
                    raise RuntimeError(
                        f"serve: {seconds:g}s needs more unsettled "
                        f"addresses than the landscape holds")
                addresses[index] = state["misses"].pop()
            steps.append({"rate": rate, "addresses": addresses})
        planned = sum(len(step["addresses"]) for step in steps)
        config = ServeConfig(
            store_path=state["path"],
            # Deployment settings: the load generator is one client, so the
            # per-client limit and admission bounds sit far above the
            # highest offered rate; any refusal is then a real failure.
            rate_per_s=100.0 * max(SERVE_RATES),
            burst=10 * planned + 1000,
            slots=8, queue_limit=64, queue_timeout_s=30.0)
        plan = {"connections": SERVE_CONNECTIONS, "steps": steps,
                "expected": state["expected"],
                "closed": {"seconds": seconds * SERVE_SATURATION_SHARE,
                           "window_s": SERVE_RATE_WINDOW_S,
                           "addresses": self._next_hits(state, 4096)}}
        state.update(lateness=[], service=[0.0, 0], steps={})
        phase = Phase()
        # The daemon and the load generator share one CPU, the generator at
        # idle priority (see load.py): a second CPU's wake-ups and
        # scheduling made latency and throughput vary with the host's load.
        # Threads inherit the mask, so it is set before the daemon starts
        # its own.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        plan["cpu"] = cpus[0]
        try:
            # Start and drain stay outside the timed phase.
            app = ServeApp(config, landscape=state["world"]).start()
            try:
                plan["port"] = app.port
                began = clock()
                completed = subprocess.run(
                    [sys.executable, os.path.join(HERE, "load.py")],
                    input=json.dumps(plan).encode("utf-8"),
                    stdout=subprocess.PIPE, timeout=60 + 2 * seconds,
                    check=True)
                phase.wall_s = clock() - began
            finally:
                app.close()
        finally:
            os.sched_setaffinity(0, cpus)
        results = json.loads(completed.stdout)
        ladder = [self._absorb(state, rows, phase, rate)
                  for rate, rows in zip(SERVE_RATES, results["steps"])]
        # The latency metrics come from the top rate's step alone, one
        # population, in windows of SERVE_LATENCY_WINDOW_S.
        top = phase.latencies_s = ladder[-1]
        count = max(1, round(seconds * SERVE_RATE_SHARES[-1]
                             / SERVE_LATENCY_WINDOW_S))
        phase.latency_windows = [
            top[len(top) * index // count:len(top) * (index + 1) // count]
            for index in range(count)]
        closed = results["closed"]
        answered = closed["statuses"].get("200", 0)
        phase.items += closed["count"]
        phase.elapsed_s += closed["seconds"]
        phase.rate_windows = [done / SERVE_RATE_WINDOW_S
                              for done in closed["windows"]]
        phase.attempted += closed["count"]
        phase.failed += closed["count"] - answered
        state["refused"] += sum(closed["statuses"].get(code, 0)
                                for code in ("429", "503"))
        state["answered"] += answered
        state["mismatched"] += len(closed["unmatched"])
        state["service"][0] += closed["service_s"]
        state["service"][1] += closed["count"]
        return phase

    def _absorb(self, state: dict, rows: list, phase: Phase,
                rate: int) -> list[float]:
        """Fold one open-loop step's rows into the phase and the state;
        returns the step's latencies in the order the queries were due."""
        step = []
        for due, sent, done, status, address, digest in rows:
            phase.attempted += 1
            if status != 200:
                phase.failed += 1
                if status in (429, 503):
                    state["refused"] += 1
                # A refused or failed query misses any latency limit.
                step.append(float("inf"))
                continue
            state["answered"] += 1
            if address not in state["expected"]:
                state["fresh"].append((address, digest))
            elif digest:
                state["mismatched"] += 1
            state["service"][0] += done - sent
            state["service"][1] += 1
            step.append(done - due)
            state["lateness"].append(sent - due)
        # Lateness grows when the generator falls further behind over the
        # step: compare its last tenth with its first.
        tenth = max(1, len(rows) // 10)
        growing = (percentile([r[1] - r[0] for r in rows[-tenth:]], 0.5)
                   > percentile([r[1] - r[0] for r in rows[:tenth]], 0.5)
                   + 0.005)
        state["steps"][rate] = (percentile(step, 0.99) * 1000, growing)
        return step

    def check(self, state: dict, phase: Phase) -> list[str]:
        from repro import api
        from repro.core import Proxion

        problems = []
        if phase.failed:
            problems.append(f"{phase.failed} queries failed or were refused")
        mismatched = state["mismatched"]
        if state["fresh"]:
            # Reference for the write-through path: a batch sweep of the
            # same addresses, encoded as the fresh answer.
            world = state["world"]
            fresh = [bytes.fromhex(address[2:])
                     for address, _body in state["fresh"]]
            report = Proxion(world.node, registry=world.registry,
                             dataset=world.dataset).analyze_all(
                                 addresses=fresh)
            for address, body in state["fresh"]:
                analysis = report.analyses.get(bytes.fromhex(address[2:]))
                if analysis is not None:
                    expected = api.answer_from_analysis(analysis,
                                                        api.SOURCE_FRESH)
                else:
                    expected = api.ContractAnswer(
                        address=address, verdict=api.VERDICT_SKIPPED,
                        source=api.SOURCE_FRESH, analysis=None, failure=None)
                if body != _digest(api.encode(expected)):
                    mismatched += 1
        if mismatched:
            problems.append(f"{mismatched} of {state['answered']} answers "
                            f"differ from the batch sweep's repro.query/1 "
                            f"encoding")
        if not state["fresh"]:
            problems.append("no miss took the fresh-analysis path")
        return problems

    def layers(self, state: dict) -> dict[str, float]:
        max_qps = 0.0
        for rate in SERVE_RATES:
            p99_ms, growing = state["steps"].get(rate, (float("inf"), True))
            if p99_ms > SERVE_LATENCY_LIMIT_MS or growing:
                break
            max_qps = float(rate)
        return {"serve.refused": float(state["refused"]),
                "serve.lateness_p99_ms":
                percentile(state["lateness"], 0.99) * 1000,
                "serve.max_qps": max_qps}


# ---------------------------------------------------------------- follow
class Follow(Workload):
    """Replay a landscape's transactions block by block onto a fresh chain,
    with seeded reorgs, while a ``DeploymentMonitor`` follows it."""

    name = "follow"

    def setup(self, seed: int) -> dict:
        world = self._generate(FOLLOW_TOTAL, seed)
        steps: list[tuple[int, object, bytes | None]] = []
        for block in world.chain.blocks[1:]:
            if not block.receipts:
                steps.append((block.number, None, None))
            for receipt in block.receipts:
                steps.append((block.number, receipt.transaction,
                              receipt.created_address))
        senders = sorted({tx.sender for _n, tx, _a in steps if tx is not None})
        rng = random.Random(seed)
        points = sorted(rng.sample(range(FOLLOW_MAX_DEPTH * 2, len(steps)),
                                   FOLLOW_REORGS))
        reorgs = {point: rng.randint(1, FOLLOW_MAX_DEPTH) for point in points}
        return {"landscape": world, "steps": steps, "senders": senders,
                "reorgs": reorgs}

    def prepare(self, worlds: list) -> dict:
        return {"worlds": worlds, "passes": 0, "problems": [], "last": None}

    def measure(self, state: dict, seconds: float, recorder=None,
                passes: int | None = None) -> Phase:
        # Per-layer figures describe the last phase only.
        state.update(reorgs=0, invalidated=0, analyses=0, canonical=0,
                     bytes=[], dedup={}, probe=[0.0, 0.0])
        phase = Phase()
        done = 0
        while _more(phase, seconds, done, passes, len(state["worlds"])):
            done += 1
            world = state["worlds"][state["passes"] % len(state["worlds"])]
            state["passes"] += 1
            if recorder is not None:
                recorder.group = f"pass{state['passes']}"
            if state["last"] is not None:
                Workdir.remove_store(state["last"]["path"])
            state["last"] = self._replay(world, state, phase)
        phase.wall_s = phase.elapsed_s
        return phase

    def _replay(self, world: dict, state: dict, phase: Phase) -> dict:
        from repro.chain import Blockchain
        from repro.core import Proxion
        from repro.core.monitor import DeploymentMonitor
        from repro.store import attach_store

        landscape = world["landscape"]
        path = self.workdir.store_path("follow")
        binding = attach_store(path)
        chain = Blockchain(profile=landscape.chain.profile)
        for sender in world["senders"]:
            chain.fund(sender, 10 ** 30)
        proxion = Proxion.from_chain(chain, registry=landscape.registry,
                                     dataset=landscape.dataset, store=binding)
        monitor = DeploymentMonitor(proxion)
        steps = world["steps"]
        applied: list[int] = []       # step index per block record
        forked: set[int] = set()
        mismatches = 0
        started = clock()
        try:
            index = 0
            redo: list[int] = []
            while index < len(steps) or redo:
                step = redo.pop(0) if redo else index
                if step == index:
                    index += 1
                number, tx, created = steps[step]
                if tx is None:
                    chain.advance_to_block(number)
                    applied.append(step)
                    monitor.poll()
                    continue
                receipt = chain.send_transaction(tx)
                sealed = clock()
                applied.append(step)
                if (receipt.block_number != number
                        or receipt.created_address != created):
                    mismatches += 1
                monitor.poll()
                if receipt.created_address or receipt.internal_creates:
                    phase.latencies_s.append(clock() - sealed)
                if step in world["reorgs"] and step not in forked:
                    forked.add(step)
                    depth = min(world["reorgs"][step], chain.max_fork_depth)
                    chain.fork(depth)
                    redo = applied[len(applied) - depth:]
                    del applied[len(applied) - depth:]
            monitor.poll()
        finally:
            elapsed = clock() - started
            binding.close()
        phase.elapsed_s += elapsed
        stats = monitor.stats
        canonical = list(dict.fromkeys(
            address for block in chain.blocks for receipt in block.receipts
            for address in ([receipt.created_address]
                            + [event.new_address
                               for event in receipt.internal_creates])
            if address is not None))
        phase.items += stats.contracts_seen
        phase.attempted += len(canonical)
        state["reorgs"] += stats.reorgs
        state["analyses"] += stats.contracts_seen
        state["canonical"] += len(canonical)
        state["invalidated"] += proxion.metrics.counter_total(
            "store.reorg_invalidations")
        for index, value in enumerate(_storage_probe_ratio(proxion.metrics)):
            state["probe"][index] += value
        for cache in ("proxy_check", "function_collision",
                      "storage_collision"):
            hits = proxion.metrics.counter_value("dedup.hits", cache=cache)
            misses = proxion.metrics.counter_value("dedup.misses",
                                                   cache=cache)
            total = state["dedup"].setdefault(cache, [0, 0])
            total[0] += hits
            total[1] += hits + misses
        if mismatches:
            state["problems"].append(
                f"pass {state['passes']}: {mismatches} replayed "
                f"transactions sealed at another block or address")
        settled = self._settled(path)
        unsettled = [address for address in canonical
                     if address not in settled]
        phase.failed += len(unsettled)
        if canonical:
            state["bytes"].append(Workdir.store_bytes(path) / len(canonical))
        return {"path": path, "chain": chain, "landscape": landscape,
                "canonical": canonical, "settled": settled}

    @staticmethod
    def _settled(path: str) -> set[bytes]:
        from repro.store.store import AnalysisStore

        with AnalysisStore(path) as store:
            return (set(store.load_analyses()) | set(store.load_failures())
                    | store.load_skips())

    def check(self, state: dict, phase: Phase) -> list[str]:
        from repro.core import Proxion
        from repro.store.maintenance import fsck
        from repro.store.store import AnalysisStore

        problems = list(state["problems"])
        last = state["last"]
        if last is None:
            return problems + ["no replay pass ran"]
        canonical = set(last["canonical"])
        if phase.failed:
            problems.append(f"{phase.failed} canonical deployments were "
                            f"not settled by the follower")
        orphans = last["settled"] - canonical
        if orphans:
            problems.append(f"{len(orphans)} instance rows belong to "
                            f"orphaned deployments only")
        if not state["reorgs"]:
            problems.append("no reorg was followed")
        report = fsck(last["path"])
        if not report.clean:
            problems.append(f"store fsck: {report.issues}")
        landscape = last["landscape"]
        batch = Proxion.from_chain(
            last["chain"], registry=landscape.registry,
            dataset=landscape.dataset).analyze_all(
                addresses=last["canonical"])
        with AnalysisStore(last["path"]) as store:
            stored = store.load_analyses()
        differ = 0
        for address, analysis in batch.analyses.items():
            record = stored.get(address)
            standard = (analysis.standard.value
                        if analysis.standard is not None else None)
            if (record is None or bool(record.get("is_proxy"))
                    != analysis.is_proxy
                    or record.get("standard") != standard):
                differ += 1
        if differ:
            problems.append(f"{differ} followed verdicts differ from a "
                            f"batch sweep of the final chain")
        if batch.failures:
            problems.append(f"{len(batch.failures)} batch-sweep failures")
        return problems

    def layers(self, state: dict) -> dict[str, float]:
        out = {"core.monitor.reorgs": float(state["reorgs"]),
               "core.monitor.invalidated": float(state["invalidated"]),
               "core.monitor.reanalysis_ratio":
               (state["analyses"] / state["canonical"]
                if state["canonical"] else 0.0),
               "store.bytes_per_contract": percentile(state["bytes"], 0.5),
               "rpc.getstorageat_per_proxy":
               (state["probe"][0] / state["probe"][1]
                if state["probe"][1] else 0.0)}
        for cache, (hits, total) in state["dedup"].items():
            out[f"core.dedup.{cache}.hit_ratio"] = hits / total if total else 0.0
        return out


# ---------------------------------------------------------------- mine
class Mine(Workload):
    """§2.3 selector mining at a 12-bit prefix against selectors of the
    functions that a generated landscape's verified contracts expose."""

    name = "mine"

    def setup(self, seed: int) -> list[bytes]:
        from repro.utils.abi import function_selector

        world = self._generate(MINE_TOTAL, seed)
        prototypes = set()
        for address in world.registry.verified_addresses():
            source = world.registry.get_source(address)
            prototypes.update(source.function_prototypes)
        targets = sorted({function_selector(p) for p in prototypes})
        random.Random(seed).shuffle(targets)
        return targets

    def prepare(self, worlds: list) -> dict:
        return {"targets": worlds[-1], "jobs": 0, "found": []}

    def measure(self, state: dict, seconds: float, recorder=None,
                passes: int | None = None) -> Phase:
        from repro.core.selector_miner import mine_selector

        state["attempts"] = 0
        phase = Phase()
        done = 0
        while _more(phase, seconds, done, passes):
            done += 1
            target = state["targets"][state["jobs"] % len(state["targets"])]
            state["jobs"] += 1
            if recorder is not None:
                recorder.group = f"job{state['jobs']}"
            started = clock()
            result = mine_selector(target, prefix_bits=MINE_PREFIX_BITS,
                                   max_attempts=MINE_MAX_ATTEMPTS,
                                   name_prefix=f"m{state['jobs']}_")
            elapsed = clock() - started
            phase.elapsed_s += elapsed
            phase.items += result.attempts
            phase.attempted += 1
            phase.latencies_s.append(elapsed / max(1, result.attempts))
            state["attempts"] += result.attempts
            if result.prototype is None:
                phase.failed += 1
            else:
                state["found"].append((target, result.prototype))
        phase.wall_s = phase.elapsed_s
        return phase

    def check(self, state: dict, phase: Phase) -> list[str]:
        from repro.utils.abi import function_selector

        problems = []
        if phase.failed:
            problems.append(f"{phase.failed} targets not found")
        # Known answer: the ERC-20 transfer selector.
        if function_selector("transfer(address,uint256)").hex() != "a9059cbb":
            problems.append("function_selector gives a wrong known answer")
        shift = 32 - MINE_PREFIX_BITS
        for target, prototype in state["found"]:
            got = int.from_bytes(function_selector(prototype), "big") >> shift
            if got != int.from_bytes(target, "big") >> shift:
                problems.append(f"{prototype} does not match "
                                f"0x{target.hex()} on {MINE_PREFIX_BITS} bits")
        return problems

    def layers(self, state: dict) -> dict[str, float]:
        return {"core.mine.attempts": float(state["attempts"])}


WORKLOADS = {cls.name: cls for cls in (Sweep, Serve, Follow, Mine)}
