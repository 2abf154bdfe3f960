"""Pluggable pair-counting kernel tier for the DBSCOUT engines.

Two implementations of one exact contract (see :mod:`.base`):

* ``"numpy"`` — :class:`NumpyKernel`, the extracted vectorized hot
  loop, always available;
* ``"c"`` — :class:`CKernel`, a small C source compiled on first use
  with the system compiler and loaded via :mod:`ctypes`.

Selection is by name through :func:`resolve_kernel`; ``"auto"`` (the
default everywhere) prefers the compiled tier and silently falls back
to NumPy when no compiler is available, recording a
``kernel.fallback`` metric instead of raising.  Both kernels produce
bit-identical labels, so the choice never changes results — only
speed.
"""

from __future__ import annotations

import os

from repro.core.kernels.base import DEFAULT_PAIR_BUDGET, Kernel
from repro.core.kernels.c_kernel import (
    CKernel,
    c_kernel_status,
    get_c_kernel,
)
from repro.core.kernels.numpy_kernel import NumpyKernel
from repro.exceptions import KernelBuildError, ParameterError

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "KERNEL_NAMES",
    "CKernel",
    "Kernel",
    "NumpyKernel",
    "c_kernel_status",
    "get_c_kernel",
    "normalize_kernel",
    "resolve_kernel",
]

#: Accepted values for every ``kernel=`` option: the facade's
#: vectorized engine, ``VectorizedEngine``, ``IncrementalDBSCOUT``,
#: ``LiveDetector``, ``CoreModel.classify`` and the CLI's ``--kernel``.
KERNEL_NAMES = ("auto", "numpy", "c")

_NUMPY_KERNEL = NumpyKernel()


def normalize_kernel(kernel: str | Kernel | None) -> str | Kernel:
    """Validate a ``kernel`` option without resolving it.

    ``None`` means ``"auto"``.  A :class:`Kernel` instance passes
    through untouched (tests inject doubles this way); a string must
    be one of :data:`KERNEL_NAMES`.

    Raises:
        ParameterError: If ``kernel`` is not a known name or a
            :class:`Kernel` instance.
    """
    if kernel is None:
        return "auto"
    if isinstance(kernel, Kernel):
        return kernel
    if not isinstance(kernel, str) or kernel not in KERNEL_NAMES:
        raise ParameterError(
            f"kernel must be one of {', '.join(KERNEL_NAMES)} "
            f"or a Kernel instance, got {kernel!r}"
        )
    return kernel


def resolve_kernel(
    kernel: str | Kernel | None = "auto",
    counters: dict[str, int] | None = None,
) -> Kernel:
    """Resolve a kernel option to a live :class:`Kernel` instance.

    ``"auto"`` honors the ``REPRO_KERNEL`` environment variable (same
    accepted names) and otherwise prefers the compiled kernel,
    falling back to NumPy — with ``counters["kernel.fallback"]``
    incremented — when it cannot be built.  An explicit ``"c"``
    request falls back the same way: kernel choice is a performance
    hint and must never turn a working detector into an error.

    Raises:
        ParameterError: If ``kernel`` is not a valid option.
    """
    kernel = normalize_kernel(kernel)
    if isinstance(kernel, Kernel):
        return kernel
    if kernel == "auto":
        env = os.environ.get("REPRO_KERNEL")
        if env:
            kernel = normalize_kernel(env)
            if isinstance(kernel, Kernel):  # pragma: no cover - str env
                return kernel
    if kernel == "numpy":
        return _NUMPY_KERNEL
    # "c" and "auto" both want the compiled tier.
    try:
        return get_c_kernel()
    except KernelBuildError:
        if counters is not None:
            counters["kernel.fallback"] = (
                counters.get("kernel.fallback", 0) + 1
            )
        return _NUMPY_KERNEL
