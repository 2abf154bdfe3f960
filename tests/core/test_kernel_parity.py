"""Bit-identity of the compiled C kernel against the NumPy kernel.

The kernel tier is a pure performance layer: for every (kernel, eps,
minPts, dims) combination the labels AND the ``distance_computations``
counter must match exactly.  The fallback contract is also tested: with
no usable compiler the C kernel silently degrades to NumPy, increments
``kernel.fallback``, and never raises.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro import DBSCOUT
from repro.core.kernels import (
    KERNEL_NAMES,
    Kernel,
    NumpyKernel,
    normalize_kernel,
    resolve_kernel,
)
from repro.core.kernels import c_kernel
from repro.core.kernels.c_kernel import c_kernel_status, get_c_kernel
from repro.core.kernels.numpy_kernel import segmented_pair_counts
from repro.core.vectorized import VectorizedEngine
from repro.exceptions import KernelBuildError, ParameterError

C_STATUS = c_kernel_status()
needs_c = pytest.mark.skipif(
    not C_STATUS["available"],
    reason=f"C kernel unavailable: {C_STATUS.get('reason')}",
)


def _segments(rng, n_cells, n_dims, scale):
    """Random flat member/candidate segments plus the point array."""
    m_sizes = rng.integers(0, 6, size=n_cells)
    c_sizes = rng.integers(0, 9, size=n_cells)
    n_points = int(m_sizes.sum() + c_sizes.sum()) or 1
    array = rng.uniform(-scale, scale, size=(n_points, n_dims))
    members = rng.integers(0, n_points, size=int(m_sizes.sum()))
    cands = rng.integers(0, n_points, size=int(c_sizes.sum()))
    return array, members, m_sizes, cands, c_sizes


def _run(kernel, array, members, m_sizes, cands, c_sizes, eps_sq):
    counters = {}
    counts = kernel.segmented_pair_counts(
        array, members, m_sizes, cands, c_sizes, eps_sq, counters
    )
    return counts, counters


class TestKernelValidation:
    def test_names(self):
        assert KERNEL_NAMES == ("auto", "numpy", "c")

    def test_none_is_auto(self):
        assert normalize_kernel(None) == "auto"

    def test_instance_passthrough(self):
        kernel = NumpyKernel()
        assert normalize_kernel(kernel) is kernel

    @pytest.mark.parametrize("bad", ["fortran", 3, b"c", True])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ParameterError, match="kernel"):
            normalize_kernel(bad)

    def test_numpy_resolution_is_singleton(self):
        assert resolve_kernel("numpy") is resolve_kernel("numpy")

    @pytest.mark.parametrize("bad", [0, -5, 2.5, "many", True])
    def test_pair_budget_rejects(self, bad):
        # The batch size is a constant of the NumPy kernel.
        with pytest.raises(ParameterError, match="pair_budget"):
            DBSCOUT(eps=1.0, min_pts=5, pair_budget=bad)


@needs_c
class TestCKernelParity:
    """The C kernel matches NumPy bit-for-bit, counters included."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_dims", [1, 2, 3, 5])
    def test_segmented_counts_match(self, seed, n_dims):
        rng = np.random.default_rng(seed)
        args = _segments(rng, n_cells=12, n_dims=n_dims, scale=2.0)
        eps_sq = float(rng.uniform(0.05, 2.0)) ** 2
        expected, ec = _run(NumpyKernel(), *args, eps_sq)
        got, gc = _run(get_c_kernel(), *args, eps_sq)
        np.testing.assert_array_equal(expected, got)
        assert ec["distance_computations"] == gc["distance_computations"]

    def test_boundary_pair_counted_inclusively(self):
        # 3-4-5 triangle: sq distance is exactly eps_sq = 25.0; the
        # contract is sq <= eps_sq, so both kernels must count it.
        array = np.array([[0.0, 0.0], [3.0, 4.0]])
        members = np.array([0])
        cands = np.array([0, 1])
        for kernel in (NumpyKernel(), get_c_kernel()):
            counts, _ = _run(
                kernel,
                array,
                members,
                np.array([1]),
                cands,
                np.array([2]),
                25.0,
            )
            assert counts.tolist() == [2]

    @pytest.mark.parametrize("pair_budget", [1, 7, 10_000])
    def test_pair_budget_invariance(self, pair_budget):
        # NumpyKernel batches at a fixed budget; the module-level NumPy
        # loop takes any, and every batching gives the C kernel's counts.
        rng = np.random.default_rng(99)
        args = _segments(rng, n_cells=9, n_dims=3, scale=1.5)
        expected, _ = _run(get_c_kernel(), *args, 0.8)
        counts = segmented_pair_counts(*args, 0.8, {}, pair_budget=pair_budget)
        np.testing.assert_array_equal(expected, counts)

    def test_sq_dist_matches_python(self):
        p, q = (0.1, 0.2, 0.3), (1.7, -0.4, 2.25)
        assert get_c_kernel().sq_dist(p, q) == NumpyKernel().sq_dist(p, q)

    @pytest.mark.parametrize("eps", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("min_pts", [2, 5])
    @pytest.mark.parametrize("n_dims", [1, 2, 4])
    def test_engine_labels_bit_identical(self, eps, min_pts, n_dims):
        rng = np.random.default_rng(n_dims * 101 + min_pts)
        points = np.vstack(
            [
                rng.normal(0.0, 0.4, size=(150, n_dims)),
                rng.uniform(3.0, 6.0, size=(12, n_dims)),
            ]
        )
        # Each kernel has its own box-test threshold, so the default
        # rule may plan the two fits differently: compare labels under
        # it, and labels plus counters with every round's plan pinned.
        for box_tests in (None, True, False):
            results = []
            for kernel in ("numpy", "c"):
                engine = VectorizedEngine(kernel=kernel)
                engine._box_tests = box_tests
                results.append(engine.detect(points, eps, min_pts))
            ref, got = results
            np.testing.assert_array_equal(ref.core_mask, got.core_mask)
            np.testing.assert_array_equal(ref.outlier_mask, got.outlier_mask)
            if box_tests is not None:
                assert (
                    ref.stats["distance_computations"]
                    == got.stats["distance_computations"]
                )

    def test_kernel_recorded_in_stats_context(self):
        points = np.random.default_rng(0).normal(size=(60, 2))
        result = VectorizedEngine(kernel="c").detect(points, 0.5, 3)
        assert result.record.context["kernel"] == "c"


class TestFallback:
    """No compiler → NumPy labels, kernel.fallback metric, no error."""

    def test_build_error_without_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        with pytest.raises(KernelBuildError):
            get_c_kernel()

    @pytest.mark.parametrize("requested", ["auto", "c"])
    def test_resolve_falls_back_and_counts(
        self, requested, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        counters = {}
        kernel = resolve_kernel(requested, counters)
        assert kernel.name == "numpy"
        assert counters["kernel.fallback"] == 1

    def test_detect_without_compiler_subprocess(self, tmp_path):
        """End-to-end: a fresh process with a broken CC still detects,
        labels match the NumPy kernel, and the run record carries the
        fallback metric."""
        code = """
import json, numpy as np
from repro.core.vectorized import VectorizedEngine
rng = np.random.default_rng(7)
points = np.vstack([
    rng.normal(0.0, 0.3, size=(120, 2)),
    np.array([[8.0, 8.0]]),
])
ref = VectorizedEngine(kernel="numpy").detect(points, 0.5, 5)
got = VectorizedEngine(kernel="c").detect(points, 0.5, 5)
assert np.array_equal(ref.outlier_mask, got.outlier_mask)
assert np.array_equal(ref.core_mask, got.core_mask)
print(json.dumps({
    "kernel": got.record.context["kernel"],
    "fallback": got.stats.get("kernel.fallback"),
}))
"""
        env = dict(os.environ)
        env["CC"] = "/nonexistent/compiler"
        env["REPRO_KERNEL_CACHE"] = str(tmp_path)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        import json

        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload["kernel"] == "numpy"
        assert payload["fallback"] == 1

    def test_status_reports_reason(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        status = c_kernel_status()
        assert status["available"] is False
        assert status["reason"]


class TestCompilerLookup:
    """The compiler lookup is a $PATH scan memoized on $CC and $PATH;
    the cache directory is memoized on $REPRO_KERNEL_CACHE and $HOME."""

    def test_repeated_resolves_scan_once_and_cc_change_rescans(
        self, tmp_path, monkeypatch
    ):
        scanned = []
        real_which = shutil.which

        def counting_which(cmd, *args, **kwargs):
            scanned.append(cmd)
            return real_which(cmd, *args, **kwargs)

        monkeypatch.setattr(c_kernel.shutil, "which", counting_which)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        first, second = str(tmp_path / "cc-one"), str(tmp_path / "cc-two")
        monkeypatch.setenv("CC", first)
        for _ in range(5):
            assert resolve_kernel("c", {}).name == "numpy"
        assert scanned == [first]
        monkeypatch.setenv("CC", second)
        counters = {}
        assert resolve_kernel("c", counters).name == "numpy"
        assert counters["kernel.fallback"] == 1
        assert scanned == [first, second]
        assert c_kernel_status()["compiler"] == second
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "other"))
        assert c_kernel._cache_dir() == tmp_path / "other"


class TestKernelInterface:
    def test_custom_kernel_instance_accepted_by_engine(self):
        calls = []

        class Spy(NumpyKernel):
            name = "spy"

            def segmented_pair_counts(self, *args, **kwargs):
                calls.append(1)
                return super().segmented_pair_counts(*args, **kwargs)

        points = np.random.default_rng(1).normal(size=(80, 2))
        spy = Spy()
        assert isinstance(spy, Kernel)
        result = VectorizedEngine(kernel=spy).detect(points, 0.4, 3)
        assert calls, "custom kernel was never invoked"
        assert result.record.context["kernel"] == "spy"
