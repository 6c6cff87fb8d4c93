"""Span tracing for the benchmark's traced run, installed from outside ``repro``.

The traced run wraps the public functions of each layer with a timing
wrapper.  A function imported by name (``from repro.utils.keccak import
keccak256`` appears in ~18 modules) is bound once per importing module, so
wrapping it at its home module alone would miss most calls: :func:`install`
replaces *every* ``repro.*`` module global that is bound to a wrapped
function, and :meth:`Installation.restore` puts every one back, including
bindings made by modules first imported while tracing was on.

Spans stay in memory, one list per thread, and are summarised (and
optionally written out) after tracing ends.  Each span records its name,
start, end, its parent on the same thread, and a group id: the pass id the
benchmark set, or for work on a thread the benchmark does not drive (the
serve daemon's request threads) the id of the thread's root span, i.e. one
id per request.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time

clock = time.perf_counter

#: (span name, module, attribute path) for every wrapped public function.
#: A target missing from the program under test is skipped and reported, so
#: the same benchmark can trace a later revision that renamed or removed it
#: (its metrics then read 0).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("utils.keccak", "repro.utils.keccak", "keccak256"),
    ("evm.execute", "repro.evm.interpreter", "EVM.execute"),
    ("chain.send_transaction", "repro.chain.blockchain",
     "Blockchain.send_transaction"),
    ("chain.fork", "repro.chain.blockchain", "Blockchain.fork"),
    ("chain.snapshot", "repro.chain.state", "WorldState.snapshot"),
    ("chain.revert", "repro.chain.state", "WorldState.revert"),
    ("core.analyze_all", "repro.core.pipeline", "Proxion.analyze_all"),
    ("core.analyze_contract", "repro.core.pipeline",
     "Proxion.analyze_contract"),
    ("core.proxy_check", "repro.core.pipeline", "Proxion.check_proxy"),
    ("core.logic_history", "repro.core.logic_finder", "LogicFinder.find"),
    ("core.function_collision", "repro.core.function_collision",
     "FunctionCollisionDetector.detect"),
    ("core.storage_collision", "repro.core.storage_collision",
     "StorageCollisionDetector.detect"),
    ("core.mine", "repro.core.selector_miner", "mine_selector"),
    ("core.monitor.poll", "repro.core.monitor", "DeploymentMonitor.poll"),
    ("store.commit", "repro.store.binding", "StoreBinding.record_analysis"),
    ("store.commit", "repro.store.binding", "StoreBinding.record_failure"),
    ("store.commit", "repro.store.binding", "StoreBinding.record_skip"),
    ("store.invalidate", "repro.store.binding",
     "StoreBinding.invalidate_instances"),
    ("store.read", "repro.api", "answer_from_store"),
    ("serve.route", "repro.serve", "ServeApp._route"),
    ("serve.admission", "repro.serve", "AdmissionGate.enter"),
    ("serve.query", "repro.serve", "QueryService.query"),
) + tuple(
    (f"rpc.{method}", "repro.chain.node", f"ArchiveNode.{method}")
    for method in ("get_code", "get_storage_at", "get_balance", "call",
                   "is_alive", "get_logs", "transactions_of",
                   "has_transactions", "get_transaction_count", "year_of"))

RPC_METHODS = tuple(name[len("rpc."):] for name, _m, _a in TARGETS
                    if name.startswith("rpc."))

_MARK = "__perfbench_original__"


def is_wrapper(value) -> bool:
    """True for a function :func:`install` made."""
    return callable(value) and hasattr(value, _MARK)


def repro_modules() -> list:
    """Every imported ``repro`` module (the namespace wrappers go into)."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class SpanRecorder:
    """Per-thread span lists plus the few argument/result observations the
    per-layer metrics need (Keccak input sizes, serve answer sources)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, list]] = []
        self._roots = itertools.count(1)
        self.group: str | None = None
        self.keccak_bytes = 0
        self.keccak_inputs: set[int] = set()

    def _spans(self) -> tuple[list, list]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
        return spans, local.stack

    def call(self, name: str, original, args, kwargs):
        spans, stack = self._spans()
        if stack:
            parent = stack[-1]
            group = spans[parent][4]
        else:
            parent = -1
            group = (self.group if threading.current_thread()
                     is threading.main_thread() and self.group is not None
                     else f"r{next(self._roots)}")
        if name == "utils.keccak" and args:
            data = args[0]
            self.keccak_bytes += len(data)
            self.keccak_inputs.add(hash(bytes(data)))
        index = len(spans)
        record = [name, clock(), 0.0, parent, group, None]
        spans.append(record)
        stack.append(index)
        try:
            result = original(*args, **kwargs)
        finally:
            record[2] = clock()
            stack.pop()
        if name == "serve.query":
            record[5] = getattr(result, "source", None)
        return result

    def threads(self) -> list[tuple[int, list]]:
        with self._lock:
            return list(self._threads)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, and for
        ``serve.query`` (calls, seconds) per answer source."""
        out: dict[str, dict] = {}
        for _ident, spans in self.threads():
            child = [0.0] * len(spans)
            for record in spans:
                if record[3] >= 0:
                    child[record[3]] += record[2] - record[1]
            for index, record in enumerate(spans):
                duration = record[2] - record[1]
                entry = out.setdefault(record[0], {
                    "calls": 0, "s": 0.0, "self_s": 0.0, "by_tag": {}})
                entry["calls"] += 1
                entry["s"] += duration
                entry["self_s"] += duration - child[index]
                if record[5] is not None:
                    count, seconds = entry["by_tag"].get(record[5], (0, 0.0))
                    entry["by_tag"][record[5]] = (count + 1,
                                                  seconds + duration)
        return out

    def write(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8") as sink:
            for ident, spans in self.threads():
                for index, record in enumerate(spans):
                    sink.write(json.dumps({
                        "thread": ident, "id": index, "name": record[0],
                        "start": record[1], "end": record[2],
                        "parent": record[3], "group": record[4]}) + "\n")
                    count += 1
        return count


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a target, or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                owner, function = klass, vars(klass)[attribute]
                break
        else:
            return None
    else:
        function = getattr(owner, attribute, None)
    if not callable(function) or isinstance(function, type):
        return None
    return owner, attribute, function


def _make_wrapper(recorder: SpanRecorder, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(name, original, args, kwargs)

    setattr(wrapper, _MARK, original)
    return wrapper


class Installation:
    """Wrappers currently bound; :meth:`restore` undoes all of them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.missing: list[str] = []
        self.wrappers: dict[int, object] = {}   # id(original) -> wrapper
        self.originals: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        # Modules first imported while tracing bound the wrapper directly.
        for module in repro_modules():
            for key, value in list(vars(module).items()):
                if is_wrapper(value):
                    setattr(module, key, getattr(value, _MARK))


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every target and every ``repro.*`` module global bound to one."""
    installation = Installation(recorder)
    for name, module_name, path in TARGETS:
        resolved = _resolve(module_name, path)
        if resolved is None:
            installation.missing.append(f"{module_name}.{path}")
            continue
        owner, attribute, original = resolved
        wrapper = _make_wrapper(recorder, name, original)
        installation.wrappers[id(original)] = wrapper
        installation.originals[id(original)] = original
        if isinstance(owner, type):
            installation._patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
    for module in repro_modules():
        for key, value in list(vars(module).items()):
            wrapper = installation.wrappers.get(id(value))
            if wrapper is not None and installation.originals[id(value)] is value:
                installation._patched.append((module, key, value))
                setattr(module, key, wrapper)
    return installation
