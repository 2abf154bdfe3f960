"""Processes, environment and provenance.

Everything the benchmark starts runs from the checkout root with the
checkout's ``src`` on ``PYTHONPATH`` (``repro`` is not installed) and
the compiled-kernel cache inside the checkout.  This module never
imports ``repro`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
KERNEL_CACHE = WORK / "kernels"

#: Variables that keep every process single-threaded, unbuffered and
#: on the program's default kernel selection, with its cache in WORK.
ENVIRONMENT = {
    "PYTHONUNBUFFERED": "1",
    "REPRO_KERNEL_CACHE": str(KERNEL_CACHE),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare_environment() -> None:
    """Apply :data:`ENVIRONMENT` to this process and to every process
    it starts; call it before NumPy is imported, so that its thread
    pools start single-threaded.

    Bytecode caching is switched on whatever the caller's setting, so
    every set-up imports from a warm cache, as a user's would.
    """
    os.environ.update(ENVIRONMENT)
    # The checkout's program first; anything else on the path after it.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    os.environ.pop("REPRO_KERNEL", None)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def inside_checkout(path: str | None) -> bool:
    if not path:
        return False
    return pathlib.Path(path).resolve().is_relative_to(SRC)


def mapped_kernel(pid: int | str = "self") -> str:
    """``"c"`` when the process has a shared library from inside the
    checkout mapped (the compiled kernel), ``"numpy"`` when it has none
    (the silent fallback), ``"unknown"`` without ``/proc``."""
    try:
        maps = pathlib.Path(f"/proc/{pid}/maps").read_text()
    except OSError:
        return "unknown"
    for line in maps.splitlines():
        path = line.split(maxsplit=5)[-1]
        if ".so" in path and path.startswith(str(ROOT)):
            return "c"
    return "numpy"


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_probe_ms() -> float:
    """A fixed CPU task timed in ms: recorded, never used to adjust."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    values = np.random.default_rng(12345).random(500_000)
    values.sort()
    return (time.perf_counter() - started) * 1e3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, check=False,
    )
    return done.stdout.strip() or None


def python_child(script: str, *args: str, **popen) -> subprocess.Popen:
    """Start ``python perfbench/<script> args`` from the checkout root."""
    return subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, stdin=subprocess.DEVNULL, **popen,
    )


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` process on a free local port.

    Its output goes to a log file under ``.work``; ``serve_child.py``
    writes the path of the ``repro`` package it imported there first.
    """

    def __init__(self, args: list[str], label: str) -> None:
        self.port = _free_port()
        self.log_path = WORK / f"{label}.log"
        self._log = open(self.log_path, "w")
        self.proc = python_child(
            "serve_child.py", "serve", *args,
            "--host", "127.0.0.1", "--port", str(self.port),
            stdout=self._log, stderr=subprocess.STDOUT,
        )

    def connect(self, client_class, timeout_s: float = 60.0):
        """An ``OutlierClient`` once the server accepts connections."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text()[-2000:]
                )
            try:
                return client_class("127.0.0.1", self.port, timeout=30.0)
            except Exception:  # noqa: BLE001 - not listening yet
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def facts(self) -> dict:
        """Provenance and peak RSS; call while the server is alive."""
        repro_path = None
        for line in self.log_path.read_text().splitlines():
            if line.startswith("PERFBENCH "):
                repro_path = json.loads(line[len("PERFBENCH "):])["repro"]
        return {
            "repro": repro_path,
            "kernel": mapped_kernel(self.proc.pid),
            "peak_rss_mb": peak_rss_mb(self.proc.pid),
        }

    def stop(self) -> None:
        """Interrupt the server like Ctrl-C and wait until it is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
