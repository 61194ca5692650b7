"""Traced CLI call: times interpreter start, the package import and
``cli.main(argv)`` with the span recorder installed, and writes the spans to
a JSON file.  The exit code is ``cli.main``'s.

Usage: python perfbench/cli_child.py <spans.json> <cli argv...>
The parent passes its spawn time (``time.monotonic()``) in PERFBENCH_SPAWN_T
and the package's source directory in PYTHONPATH.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracing import SpanRecorder  # noqa: E402

out_path, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
from platformdesign import cli  # noqa: E402

import_s = time.perf_counter() - t0
recorder = SpanRecorder()
recorder.install()
with recorder.span("cli.main") as span:
    code = cli.main(argv)
recorder.uninstall()
sys.stdout.flush()
with open(out_path, "w", encoding="utf-8") as handle:
    json.dump(
        {
            "process_start_s": started - float(os.environ["PERFBENCH_SPAWN_T"]),
            "import_s": import_s,
            "main_s": span["end"] - span["start"],
            "spans": recorder.spans,
        },
        handle,
    )
sys.exit(code)
