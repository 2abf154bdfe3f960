"""Output checks: label digests and the attempted/failed ledger.

Every operation a workload performs is entered in a :class:`Ledger`.
An operation fails when it raises, returns no answer, or returns
labels that differ from the reference; ``error_rate`` is failed over
attempted.  For the default seed the reference labels are also pinned
by the digests committed in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

DEFAULT_SEED = 0
EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


def digest(labels: np.ndarray) -> dict:
    """Outlier count plus a hash of the outlier mask."""
    mask = np.asarray(labels).astype(bool).ravel()
    return {
        "n": int(mask.size),
        "outliers": int(mask.sum()),
        "sha256": hashlib.sha256(np.packbits(mask).tobytes()).hexdigest(),
    }


class Ledger:
    """Counts operations and the ones that failed, with the reasons.

    ``fault`` injects one defect for the self-test into the first
    answer checked after :meth:`arm`: ``"flip"`` flips one of its
    labels, ``"drop"`` discards it.
    """

    def __init__(self, fault: str | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self._fault = fault
        self._fault_at: int | None = None

    def arm(self) -> None:
        """Aim the injected fault at the next checked answer."""
        if self._fault_at is None:
            self._fault_at = self.attempted

    def observe(self, labels):
        """Pass an answer through the fault injector (no-op normally)."""
        if self._fault is None or self.attempted != self._fault_at:
            return labels
        if self._fault == "drop":
            return None
        flipped = np.array(labels, copy=True)
        flipped.flat[0] = 1 - flipped.flat[0]
        return flipped

    def check(self, what: str, got, expected=None) -> bool:
        """Record one operation whose answer ``got`` must equal
        ``expected``; with no ``expected``, only that there is an answer
        (``got is None`` is a dropped answer)."""
        got = self.observe(got)
        self.attempted += 1
        if got is None:
            return self.fail(f"{what}: no answer", counted=True)
        if expected is not None and not np.array_equal(
            np.asarray(got), np.asarray(expected)
        ):
            return self.fail(f"{what}: wrong labels", counted=True)
        return True

    def fail(self, reason: str, counted: bool = False) -> bool:
        """Record a failed operation (``counted``: already attempted)."""
        if not counted:
            self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return False

    def check_pinned(self, workload: str, seed: int, got: dict) -> None:
        """On the default seed, compare a digest with the committed one."""
        if seed != DEFAULT_SEED:
            return
        pinned = json.loads(EXPECTED_PATH.read_text()).get(workload)
        if pinned is None:
            self.fail(f"{workload}: no committed digest")
        elif pinned != got:
            self.fail(f"{workload}: digest {got} != committed {pinned}")
        else:
            self.attempted += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
