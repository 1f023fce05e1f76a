"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times the import of the program (``repro`` and the workload's campaign
class) and the construction of the campaign object, and prints them as one
JSON line::

    python3 perfbench/setup_probe.py <src-dir> <workload> <seed> <trials> <workdir>
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    src, workload, seed, trials, workdir = argv
    start = time.perf_counter()
    sys.path.insert(0, src)
    from campaigns import WORKLOADS  # imports the program

    imported = time.perf_counter()
    WORKLOADS[workload].build(int(seed), int(trials), workdir)
    constructed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "construct_s": constructed - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
