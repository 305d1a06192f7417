"""The generic engine ``Registry``, checked once per registry instance.

Every pluggable-engine family is one module-level
:class:`~repro.utils.registry.Registry`; these tests run the same three
contracts over each of them: a duplicate name raises the family's own
error class, an unknown name's message lists what is registered, and the
built-in engines are there on the first lookup in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import REGISTRIES
from repro.errors import BackendError, ReproError, ServiceError, TransportError

#: kind -> (module, attribute, error class, one built-in name)
SITES = {
    "variant": ("repro.mcmc.engine", "VARIANTS", ReproError, "h-sbp"),
    "backend": ("repro.parallel.backend", "BACKENDS", BackendError, "vectorized"),
    "sampler": ("repro.sampling.samplers", "SAMPLERS", ReproError, "degree-weighted"),
    "block storage": ("repro.sbm.block_storage", "BLOCK_STORAGES", BackendError, "hybrid"),
    "transport": ("repro.distributed.comm", "TRANSPORTS", TransportError, "pipes"),
    "drift policy": ("repro.streaming.drift", "DRIFT_POLICIES", ReproError, "mdl-ratio"),
    "stream source": (
        "repro.streaming.source", "STREAM_SOURCES", ReproError, "synthetic-churn",
    ),
    "result store": ("repro.service.store", "RESULT_STORES", ServiceError, "disk"),
    "job queue": ("repro.service.queue", "JOB_QUEUES", ServiceError, "fifo"),
}


def _registry(kind):
    module, attr, _, _ = SITES[kind]
    return getattr(importlib.import_module(module), attr)


def test_every_registry_is_covered():
    assert sorted(r.kind for _, r in REGISTRIES) == sorted(SITES)
    for _, registry in REGISTRIES:
        assert _registry(registry.kind) is registry


@pytest.mark.parametrize("kind", sorted(SITES))
def test_duplicate_name_raises_site_error(kind):
    registry, error = _registry(kind), SITES[kind][2]
    name = SITES[kind][3]
    entry = registry.get(name)
    with pytest.raises(error, match="already registered") as exc:
        registry.register(name, object())
    assert type(exc.value) is error
    assert registry.get(name) is entry


@pytest.mark.parametrize("kind", sorted(SITES))
def test_unknown_name_lists_registered(kind):
    registry, error = _registry(kind), SITES[kind][2]
    with pytest.raises(error, match=f"unknown {kind} 'no-such-entry'") as exc:
        registry.get("no-such-entry")
    assert type(exc.value) is error
    for name in registry.names():
        assert repr(name) in str(exc.value)


@pytest.mark.parametrize("kind", sorted(SITES))
def test_builtins_load_on_first_get(kind):
    module, attr, _, builtin = SITES[kind]
    code = (
        f"import json; from {module} import {attr} as r; "
        f"r.get({builtin!r}); print(json.dumps(r.names()))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    fresh = json.loads(out)
    assert builtin in fresh
    assert set(fresh) <= set(_registry(kind).names())


def test_builtin_modules_import_only_on_first_lookup(tmp_path, monkeypatch):
    from repro.utils.registry import Registry

    registry = Registry("widget", builtins=("widget_plugin",))
    holder = type(sys)("widget_holder")
    holder.WIDGETS = registry
    monkeypatch.setitem(sys.modules, "widget_holder", holder)
    (tmp_path / "widget_plugin.py").write_text(
        "from widget_holder import WIDGETS\nWIDGETS.register('gear', 7)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "widget_plugin", raising=False)

    registry.register("cog", 3)
    assert "widget_plugin" not in sys.modules
    assert registry.get("gear") == 7
    assert registry.names() == ["cog", "gear"]
    assert "widget_plugin" in sys.modules
    del sys.modules["widget_plugin"]


def test_concurrent_first_lookups_see_every_builtin(tmp_path, monkeypatch):
    import threading

    from repro.utils.registry import Registry

    registry = Registry("gadget", builtins=("gadget_plugin",))
    holder = type(sys)("gadget_holder")
    holder.GADGETS = registry
    monkeypatch.setitem(sys.modules, "gadget_holder", holder)
    # The import registers slowly, so lookups racing it must wait for it.
    (tmp_path / "gadget_plugin.py").write_text(
        "import time\nfrom gadget_holder import GADGETS\n"
        "for i in range(20):\n"
        "    time.sleep(0.002)\n"
        "    GADGETS.register(f'g{i}', i)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    errors: list[BaseException] = []

    def lookup():
        try:
            assert registry.get("g19") == 19
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lookup) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        sys.modules.pop("gadget_plugin", None)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
