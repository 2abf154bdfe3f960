"""Namespaced counter registry unifying every engine's statistics.

Counters from the vectorized engine (pruning/distance budgets), the
kernel tier and the SparkLite substrate (shuffle/task counts) all land
in one :class:`MetricsRegistry` under dotted names:

* ``engine.*`` — per-run detector counters
  (``engine.distance_computations``, ``engine.pruned_cells``, ...);
* ``kernel.*`` — kernel-tier facts (``kernel.fallback``);
* ``sparklite.*`` — substrate counters for the run
  (``sparklite.records_shuffled``, ``sparklite.tasks_executed``, ...).

The registry is thread-safe and stores plain Python ints/floats only,
so a snapshot is always ``json.dumps``-able.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Mapping

import numpy as np

__all__ = ["MetricsRegistry", "to_builtin"]


def to_builtin(value: Any, *, finite: bool = False) -> Any:
    """Recursively convert NumPy scalars/arrays to JSON-safe builtins.

    Containers keep their type (tuples stay tuples — ``json`` encodes
    them as arrays); unknown objects pass through unchanged.

    With ``finite=True``, non-finite floats (``nan``/``inf``, Python or
    NumPy, including inside arrays) become ``None`` so the result
    survives strict JSON encoders (``allow_nan=False``) and non-Python
    JSON parsers.  Leave it off for arithmetic paths where ``nan``
    must propagate.
    """
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if finite and not math.isfinite(value):
            return None
        return value
    if isinstance(value, np.ndarray):
        return to_builtin(value.tolist(), finite=finite)
    if isinstance(value, dict):
        return {
            key: to_builtin(item, finite=finite)
            for key, item in value.items()
        }
    if isinstance(value, tuple):
        return tuple(to_builtin(item, finite=finite) for item in value)
    if isinstance(value, list):
        return [to_builtin(item, finite=finite) for item in value]
    return value


class MetricsRegistry:
    """Thread-safe mapping of dotted counter names to numeric values."""

    def __init__(self) -> None:
        self._values: dict[str, int | float] = {}
        self._lock = threading.Lock()

    def increment(self, name: str, delta: int | float = 1) -> None:
        """Add ``delta`` to counter ``name`` (created at zero)."""
        delta = to_builtin(delta)
        with self._lock:
            self._values[name] = self._values.get(name, 0) + delta

    def set(self, name: str, value: int | float) -> None:
        """Overwrite counter ``name``."""
        with self._lock:
            self._values[name] = to_builtin(value)

    def get(self, name: str, default: int | float = 0) -> int | float:
        """Current value of ``name`` (``default`` when absent)."""
        with self._lock:
            return self._values.get(name, default)

    def merge(
        self,
        counters: Mapping[str, int | float],
        namespace: str | None = None,
    ) -> None:
        """Accumulate a counter mapping into the registry.

        Keys that already contain a dot are taken as fully qualified
        (e.g. a ``kernel.fallback`` entry inside an engine counter dict);
        bare keys get the ``namespace`` prefix.
        """
        for key, value in counters.items():
            if namespace and "." not in key:
                key = f"{namespace}.{key}"
            self.increment(key, value)

    def snapshot(self) -> dict[str, int | float]:
        """Sorted plain-dict copy of every counter."""
        with self._lock:
            return {key: self._values[key] for key in sorted(self._values)}

    def namespace(self, prefix: str) -> dict[str, int | float]:
        """Counters under ``prefix.``, with the prefix stripped."""
        prefix = prefix.rstrip(".") + "."
        with self._lock:
            return {
                key[len(prefix) :]: value
                for key, value in sorted(self._values.items())
                if key.startswith(prefix)
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.snapshot()!r})"
