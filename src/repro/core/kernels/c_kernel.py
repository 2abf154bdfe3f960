"""Compiled C implementation of the pair-counting kernel contract.

The kernel ships as one dependency-free C source file
(``_pair_counts.c``) compiled on first use with the system C compiler
(``$CC``, else ``gcc``, else ``cc``) into a shared library cached
under ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/kernels``) and
loaded via :mod:`ctypes` — no numba/Cython/build-system dependency.
The cache key hashes the source and the compile command, so editing
either transparently rebuilds.

Bit-exactness: the C loops accumulate ``acc += delta * delta`` one
dimension at a time — the same IEEE operation sequence per pair as the
NumPy kernel — and the build passes ``-ffp-contract=off
-fno-fast-math`` so the compiler cannot fuse the multiply-add into an
FMA or reassociate the accumulation.  Labels are therefore
bit-identical to the NumPy kernel for every input (enforced by
``tests/core/test_kernel_parity.py`` and the ``repro.qa`` fuzzer).

Every failure mode — no compiler, compile error, unloadable library —
raises :class:`~repro.exceptions.KernelBuildError`, which
:func:`repro.core.kernels.resolve_kernel` converts into a NumPy
fallback plus a ``kernel.fallback`` metric.  Nothing in this module is
allowed to take the engines down.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile

import numpy as np

from repro.core.kernels.base import Kernel
from repro.exceptions import KernelBuildError

__all__ = ["CKernel", "build_library", "c_kernel_status", "get_c_kernel"]

_SOURCE_PATH = pathlib.Path(__file__).with_name("_pair_counts.c")

#: Exactness-critical flags: no FMA contraction, no fast-math
#: reassociation.  -O3 is safe — per-pair accumulation is a float
#: dependency chain the optimizer cannot legally reorder.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_C_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_C_INT64_P = ctypes.POINTER(ctypes.c_int64)


def _compiler() -> str | None:
    """The C compiler to use, or ``None`` when none is available.

    Every kernel resolve asks, so the answer is memoized on the raw
    ``$CC`` and ``$PATH`` values: the lookup is a ``$PATH`` scan, one
    ``stat`` per directory, and changing either variable re-resolves.
    """
    return _find_compiler(os.environ.get("CC"), os.environ.get("PATH"))


@functools.lru_cache(maxsize=16)
def _find_compiler(explicit: str | None, path: str | None) -> str | None:
    if explicit:
        found = shutil.which(explicit, path=path)
        return found or explicit  # let subprocess surface the error
    for candidate in ("gcc", "cc", "clang"):
        found = shutil.which(candidate, path=path)
        if found:
            return found
    return None


def _cache_dir() -> pathlib.Path:
    """The compiled-library cache directory, memoized like :func:`_compiler`
    on the raw ``$REPRO_KERNEL_CACHE`` and ``$HOME`` values."""
    return _find_cache_dir(
        os.environ.get("REPRO_KERNEL_CACHE"), os.environ.get("HOME")
    )


@functools.lru_cache(maxsize=16)
def _find_cache_dir(override: str | None, home: str | None) -> pathlib.Path:
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "kernels"


def _build_key(compiler: str, source: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update("\0".join((compiler,) + _CFLAGS).encode())
    return digest.hexdigest()[:16]


def build_library() -> pathlib.Path:
    """Compile (or reuse) the kernel shared library; return its path.

    Raises:
        KernelBuildError: No compiler, unreadable source, or a
            non-zero compile exit.
    """
    compiler = _compiler()
    if compiler is None:
        raise KernelBuildError(
            "no C compiler found (set $CC or install gcc/cc); "
            "falling back to the NumPy kernel"
        )
    try:
        source = _SOURCE_PATH.read_bytes()
    except OSError as exc:
        raise KernelBuildError(
            f"kernel source unreadable: {exc}"
        ) from exc
    cache = _cache_dir()
    target = cache / f"pair_counts_{_build_key(compiler, source)}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        # Compile to a private temp name, then atomically publish, so
        # concurrent processes never load a half-written library.
        fd, scratch = tempfile.mkstemp(
            suffix=".so", prefix="build_", dir=cache
        )
        os.close(fd)
        completed = subprocess.run(
            [compiler, *_CFLAGS, str(_SOURCE_PATH), "-o", scratch],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            os.unlink(scratch)
            detail = (completed.stderr or completed.stdout or "").strip()
            raise KernelBuildError(
                f"C kernel compile failed with {compiler}: "
                f"{detail[:500] or 'no compiler output'}"
            )
        os.replace(scratch, target)
    except KernelBuildError:
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelBuildError(
            f"C kernel build failed: {exc}"
        ) from exc
    return target


def _load(path: pathlib.Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(
            f"compiled kernel {path} failed to load: {exc}"
        ) from exc
    try:
        lib.repro_segmented_pair_counts.restype = ctypes.c_int64
        lib.repro_segmented_pair_counts.argtypes = [
            _C_DOUBLE_P,  # points
            ctypes.c_int64,  # n_dims
            _C_INT64_P,  # members
            _C_INT64_P,  # m_sizes
            _C_INT64_P,  # cands
            _C_INT64_P,  # c_sizes
            ctypes.c_int64,  # n_cells
            ctypes.c_double,  # eps_sq
            _C_INT64_P,  # counts_out
        ]
        lib.repro_sq_dist.restype = ctypes.c_double
        lib.repro_sq_dist.argtypes = [
            _C_DOUBLE_P,
            _C_DOUBLE_P,
            ctypes.c_int64,
        ]
    except AttributeError as exc:
        raise KernelBuildError(
            f"compiled kernel {path} is missing symbols: {exc}"
        ) from exc
    return lib


def _as_f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def _as_i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _f64_ptr(array: np.ndarray):
    return array.ctypes.data_as(_C_DOUBLE_P)


def _i64_ptr(array: np.ndarray):
    return array.ctypes.data_as(_C_INT64_P)


class CKernel(Kernel):
    """The compiled tier: identical labels, none of the gather overhead.

    Where the NumPy kernel materializes ~5 temporary vectors per batch
    (expanded index gathers, the pair-distance vector, the comparison
    mask), the C loops stream each pair through registers — the 3-10x
    win the benchmarks measure is all memory traffic.
    """

    name = "c"

    def __init__(self, library_path: pathlib.Path) -> None:
        self.library_path = pathlib.Path(library_path)
        self._lib = _load(self.library_path)

    def segmented_pair_counts(
        self,
        array: np.ndarray,
        members_flat: np.ndarray,
        m_sizes: np.ndarray,
        cands_flat: np.ndarray,
        c_sizes: np.ndarray,
        eps_sq: float,
        counters: dict[str, int],
    ) -> np.ndarray:
        counts_out = np.zeros(members_flat.shape[0], dtype=np.int64)
        if m_sizes.shape[0] == 0 or members_flat.shape[0] == 0:
            return counts_out
        array = _as_f64(array)
        members_flat = _as_i64(members_flat)
        m_sizes = _as_i64(m_sizes)
        cands_flat = _as_i64(cands_flat)
        c_sizes = _as_i64(c_sizes)
        total_pairs = self._lib.repro_segmented_pair_counts(
            _f64_ptr(array),
            array.shape[1],
            _i64_ptr(members_flat),
            _i64_ptr(m_sizes),
            _i64_ptr(cands_flat),
            _i64_ptr(c_sizes),
            m_sizes.shape[0],
            float(eps_sq),
            _i64_ptr(counts_out),
        )
        counters["distance_computations"] = counters.get(
            "distance_computations", 0
        ) + int(total_pairs)
        return counts_out

    def sq_dist(
        self, p: tuple[float, ...], q: tuple[float, ...]
    ) -> float:
        a = _as_f64(np.asarray(p, dtype=np.float64))
        b = _as_f64(np.asarray(q, dtype=np.float64))
        if a.shape[0] == 0:
            return 0.0
        return float(
            self._lib.repro_sq_dist(_f64_ptr(a), _f64_ptr(b), a.shape[0])
        )

    def __reduce__(self):
        # A ctypes CDLL cannot cross a process boundary.  Ship a
        # re-resolution instead: the receiving process rebuilds (or
        # reloads) its own compiled kernel, falling back to NumPy —
        # bit-identical by the kernel contract — when it has no
        # compiler.
        return (_rehydrated_kernel, ())


def _rehydrated_kernel() -> Kernel:
    """Worker-side stand-in for a pickled :class:`CKernel`."""
    try:
        return get_c_kernel()
    except KernelBuildError:
        from repro.core.kernels.numpy_kernel import NumpyKernel

        return NumpyKernel()


#: Build outcome cache keyed by (compiler, cache dir): either the
#: loaded CKernel or the KernelBuildError explaining why there is
#: none.  Re-resolving under a different $CC / $REPRO_KERNEL_CACHE
#: (the CI no-compiler simulation does exactly this) retries cleanly.
_BUILD_CACHE: dict[tuple[str | None, str], CKernel | KernelBuildError] = {}


def get_c_kernel() -> CKernel:
    """The process-wide C kernel, compiling on first use.

    Raises:
        KernelBuildError: When the kernel cannot be built or loaded;
            the outcome (success or failure) is cached per
            compiler/cache-dir combination.
    """
    key = (_compiler(), str(_cache_dir()))
    cached = _BUILD_CACHE.get(key)
    if cached is None:
        try:
            cached = CKernel(build_library())
        except KernelBuildError as exc:
            cached = exc
        _BUILD_CACHE[key] = cached
    if isinstance(cached, KernelBuildError):
        raise cached
    return cached


def c_kernel_status() -> dict[str, object]:
    """Diagnostic snapshot: is the compiled tier available, and why not."""
    try:
        kernel = get_c_kernel()
    except KernelBuildError as exc:
        return {
            "available": False,
            "compiler": _compiler(),
            "reason": str(exc),
        }
    return {
        "available": True,
        "compiler": _compiler(),
        "library": str(kernel.library_path),
    }
