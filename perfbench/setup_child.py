"""One set-up sample: a fresh interpreter imports the package and, for the
in-process workloads, runs one untimed warm-up op, then prints ``ready``.

Usage: python perfbench/setup_child.py <workload> <seed>
The parent passes the package's source directory in PYTHONPATH.
"""

import sys

workload, seed = sys.argv[1], int(sys.argv[2])
import platformdesign  # noqa: E402,F401

if workload != "cli-calls":
    import workloads  # noqa: E402

    {"platform-design": workloads.platform_warmup, "study-grids": workloads.study_warmup}[
        workload
    ](seed)
print("ready", flush=True)
