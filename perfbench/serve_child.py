"""``python -m repro ARGS`` that first reports which ``repro`` it imported.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_child.py serve ARTIFACT --port 7227

The first line on stderr is ``PERFBENCH {"repro": PATH, "pid": PID}``;
then the program's own command line runs exactly as ``python -m repro``
would run it.
"""

import json
import os
import runpy
import sys

# Resolve imports as ``python -m`` does: the working directory first,
# not this script's directory.
sys.path[0] = os.getcwd()

import repro  # noqa: E402

print(
    "PERFBENCH " + json.dumps({"repro": repro.__file__, "pid": os.getpid()}),
    file=sys.stderr,
    flush=True,
)
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
