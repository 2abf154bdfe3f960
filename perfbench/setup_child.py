"""One fresh-process fit set-up, timed from ``import repro`` through the
first fit (which loads the compiled kernel) on a small slice.

Usage: python perfbench/setup_child.py SLICE.npy EPS MIN_PTS

Prints one JSON line: ``setup_s``, the indices of the slice's outliers,
the imported ``repro`` path and the kernel mapped into this process.
"""

import json
import sys
import time

import numpy as np

from procs import mapped_kernel


def main() -> None:
    points = np.load(sys.argv[1])
    eps, min_pts = float(sys.argv[2]), int(sys.argv[3])
    started = time.perf_counter()
    import repro

    result = repro.DBSCOUT(eps=eps, min_pts=min_pts).fit(points)
    elapsed = time.perf_counter() - started
    print(json.dumps({
        "setup_s": elapsed,
        "outliers": np.flatnonzero(result.outlier_mask).tolist(),
        "repro": repro.__file__,
        "kernel": mapped_kernel(),
    }))


if __name__ == "__main__":
    main()
