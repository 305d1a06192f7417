"""One name → entry table for every family of pluggable engines.

Execution backends, block storages, transports, variants, samplers,
drift policies, stream sources, result stores and job queues are each
one module-level :class:`Registry` instance beside the protocol they
implement. An entry is whatever the family needs to hand out — a
factory, a class or a spec dataclass — and callers look it up and use
it directly::

    backend = BACKENDS.get("vectorized")(**options)

Engines defined in modules that import the protocol module (and so
cannot be imported *by* it without a cycle) are listed as ``builtins``:
those modules are imported on the first lookup, and registering is
their import side effect.
"""

from __future__ import annotations

import importlib
import threading
from typing import Generic, TypeVar

from repro.errors import ReproError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Named entries of one engine family.

    Parameters
    ----------
    kind:
        What an entry is, for messages: ``"backend"``, ``"job queue"``.
    error:
        Exception class raised for duplicate and unknown names.
    builtins:
        Modules imported on the first :meth:`get` or :meth:`names` call
        to register the family's built-in engines.
    """

    def __init__(
        self,
        kind: str,
        error: type[ReproError] = ReproError,
        builtins: tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.error = error
        self._entries: dict[str, T] = {}
        self._builtins = list(builtins)
        self._loaded = not builtins
        self._lock = threading.RLock()

    def register(self, name: str, entry: T) -> None:
        """Add ``entry`` under ``name``; a name can be registered once."""
        if name in self._entries:
            raise self.error(f"{self.kind} {name!r} already registered")
        self._entries[name] = entry

    def get(self, name: str) -> T:
        """The entry registered under ``name``."""
        self._load_builtins()
        entry = self._entries.get(str(name))
        if entry is None:
            raise self.error(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            )
        return entry

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        self._load_builtins()
        return sorted(self._entries)

    def _load_builtins(self) -> None:
        if self._loaded:
            return
        # Held across the imports so a concurrent lookup waits for the
        # full table; re-entrant because a built-in module may look up
        # another entry while it is being imported.
        with self._lock:
            while self._builtins:
                importlib.import_module(self._builtins.pop(0))
            self._loaded = True

    def __contains__(self, name: object) -> bool:
        self._load_builtins()
        return name in self._entries
