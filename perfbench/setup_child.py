"""One set-up of a workload in a fresh interpreter, for setup_s.

    python3 perfbench/setup_child.py SRC WORKLOAD < inputs.json

run.py starts this script and times it from before the process starts.
It reads the workload's plain inputs (JSON) from standard input, imports
linsetlab from SRC with every module the program pulls in, runs the
workload's prepare() (towers and their tables, twist tables, program
objects), and prints one JSON line of time.perf_counter() readings: when
the set-up was done, and when it began and ended importing the
benchmark's own modules and decoding the inputs, which run.py takes off.
"""

import sys
import time


def main() -> None:
    src, name = sys.argv[1], sys.argv[2]
    data = sys.stdin.buffer.read()
    sys.path.insert(0, src)
    import program
    lib = program.Lib()
    t0 = time.perf_counter()
    import json
    import workloads
    inputs = json.loads(data)
    t1 = time.perf_counter()
    workloads.WORKLOADS[name].prepare(lib, inputs)
    done = time.perf_counter()
    print(json.dumps({"done": done, "own": [t0, t1]}))


if __name__ == "__main__":
    main()
