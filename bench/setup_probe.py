"""Time one set-up in a fresh interpreter: import tauadic and run one
warm-up op per op kind.  Prints {"setup_s": CPU seconds, "kernel_s": mean
CPU seconds of the reference kernel, timed right after}.

    python3 bench/setup_probe.py WORKLOAD SRC_DIR
"""

import json
import sys
import time
from pathlib import Path

import workloads
from reference import calibration_kernel

KERNEL_RUNS = 100


def main() -> None:
    workload, src = sys.argv[1], Path(sys.argv[2])
    reference = workloads.Reference()
    start = time.thread_time()
    program = workloads.load_program(src)
    workloads.warm_up(program, reference, workload)
    setup_s = time.thread_time() - start
    start = time.thread_time()
    for _ in range(KERNEL_RUNS):
        calibration_kernel()
    kernel_s = (time.thread_time() - start) / KERNEL_RUNS
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()
