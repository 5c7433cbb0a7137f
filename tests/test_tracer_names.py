"""The benchmark tracer (perfbench/spans.py) wraps emlab functions by module
and name, so every name it wraps must stay importable from that module, and
``restore`` must put each original back."""

import importlib
import sys
from pathlib import Path

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.insert(0, _PERFBENCH)

import spans  # noqa: E402


def _boundaries():
    return [(module, name) for module, name, *_ in spans._SPANS] + list(spans._INTEGRALS)


def _lookup(module, name):
    return getattr(importlib.import_module(module), name)


def test_install_wraps_every_name_and_restore_puts_each_back():
    originals = {key: _lookup(*key) for key in _boundaries()}
    restore = spans.install(spans.Tracer())
    try:
        wrapped = [key for key, fn in originals.items() if _lookup(*key) is not fn]
    finally:
        restore()
    assert wrapped == list(originals)
    assert all(_lookup(*key) is fn for key, fn in originals.items())
