"""The benchmark's tracer must find every function it wraps.

``qcsbench/run.py --trace 1`` patches each ``module.function`` named by its
``trace_targets()``; a name deleted or renamed in ``qcsradar`` would break
the traced run, so this guard fails first.
"""

import importlib
import os
import sys

QCSBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "qcsbench")


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(QCSBENCH)
    for name in ("run", "checks", "workloads", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    run = importlib.import_module("run")
    targets = run.trace_targets()
    assert targets
    for target in targets:
        module_name, func_name = target.split(".")
        module = importlib.import_module(f"qcsradar.{module_name}")
        assert callable(getattr(module, func_name, None)), f"qcsbench traces {target}, which qcsradar lacks"
