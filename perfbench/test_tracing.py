"""The traced run must wrap every binding of a traced function, restore
every one afterwards, and the untraced run must install nothing.

Run with ``python3 -m pytest perfbench/test_tracing.py`` from the root of
the repository.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import pkgutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import repro  # noqa: E402
import tracing  # noqa: E402


def _import_all_repro() -> None:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):   # runs the CLI
            importlib.import_module(module.name)


def _bindings() -> dict[tuple[str, str], object]:
    """Every ``repro.*`` module global and traced class attribute."""
    out = {}
    for module in tracing.repro_modules():
        for key, value in vars(module).items():
            if callable(value):
                out[(module.__name__, key)] = value
    for _name, module_name, path in tracing.TARGETS:
        resolved = tracing._resolve(module_name, path)
        if resolved is not None:
            owner, attribute, _function = resolved
            out[(repr(owner), attribute)] = vars(owner)[attribute]
    return out


def _originals() -> dict[int, object]:
    originals = {}
    for _name, module_name, path in tracing.TARGETS:
        resolved = tracing._resolve(module_name, path)
        assert resolved is not None, f"{module_name}.{path} is not traced"
        originals[id(resolved[2])] = resolved[2]
    return originals


def test_install_replaces_every_binding_and_restore_puts_them_back():
    _import_all_repro()
    originals = _originals()
    before = _bindings()
    bound = {key for key, value in before.items()
             if originals.get(id(value)) is value}
    keccak = {key for key in bound
              if before[key] is originals[id(vars(
                  sys.modules["repro.utils.keccak"])["keccak256"])]}
    assert len(keccak) >= 15, "keccak256 is imported by name widely"

    installation = tracing.install(tracing.SpanRecorder())
    try:
        assert not installation.missing
        during = _bindings()
        for key in bound:
            assert tracing.is_wrapper(during[key]), f"{key} not wrapped"
        leftover = [key for key, value in during.items()
                    if originals.get(id(value)) is value]
        assert not leftover, f"unwrapped bindings: {leftover}"
        # Wrapped functions still compute the same thing, and are counted.
        from repro.utils.abi import function_selector
        assert function_selector("transfer(address,uint256)").hex() == \
            "a9059cbb"
        summary = installation.recorder.summary()
        assert summary["utils.keccak"]["calls"] == 1
    finally:
        installation.restore()
    after = _bindings()
    assert not [key for key, value in after.items()
                if tracing.is_wrapper(value)]
    for key in bound:
        assert after[key] is before[key], f"{key} not restored"


def test_restore_unwraps_modules_imported_while_tracing():
    _import_all_repro()
    installation = tracing.install(tracing.SpanRecorder())
    try:
        module = type(sys)("repro._perfbench_probe")
        from repro.utils import keccak
        module.keccak256 = keccak.keccak256      # bound to the wrapper
        sys.modules[module.__name__] = module
    finally:
        installation.restore()
    try:
        assert not tracing.is_wrapper(module.keccak256)
    finally:
        del sys.modules[module.__name__]


def test_untraced_run_installs_nothing(monkeypatch, capsys):
    import run
    import workloads

    _import_all_repro()
    before = _bindings()

    def refuse(_recorder):
        raise AssertionError("the untraced run installed tracing")

    monkeypatch.setattr(tracing, "install", refuse)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SWEEP_TOTAL", 30)
    seen: list[bool] = []
    measure = workloads.Sweep.measure

    def watched(self, *args, **kwargs):
        seen.append(any(tracing.is_wrapper(value)
                        for value in _bindings().values()))
        return measure(self, *args, **kwargs)

    monkeypatch.setattr(workloads.Sweep, "measure", watched)
    args = run._parse(["--workload", "sweep", "--seed", "3",
                       "--seconds", "0.01", "--trace", "0", "--child"])
    try:
        assert run.child(args) == 0
    finally:
        gc.unfreeze()
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["throughput_per_s"] > 0
    assert seen == [False]
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
