"""The set-up of one in-process run, in a fresh interpreter.

    python perfbench/setup_probe.py <workload> <seed> <smoke 0|1>

Imports ``delmenu`` (found through PYTHONPATH) and generates the run's
passes, with their oracle side (vertex covers, partition decisions).
The benchmark times this process from outside; a fresh process is needed
because a second import in one process is free.
"""

import sys

import mix


def main() -> None:
    workload, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    dm = mix.load_delmenu()
    for slots in mix.passes(workload, seed, smoke):
        for pool, sub in slots:
            mix.build_item(dm, pool, sub)


if __name__ == "__main__":
    main()
