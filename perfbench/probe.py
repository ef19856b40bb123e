"""Set-up probe: start Python, import avrc and generate one run's inputs.

    python3 perfbench/probe.py WORKLOAD SEED [--fresh]

``run.py`` times this process to get ``setup_s``: the work a user pays on
every CLI invocation, plus generating the benchmark's inputs.  It imports
nothing beyond what ``avrc`` and the input generator need, and writes no
files, so file-system speed does not enter ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import avrc.cli  # noqa: E402,F401
import workloads as wl  # noqa: E402


def main(argv):
    wl.run_items(argv[0], int(argv[1]), fresh="--fresh" in argv[2:])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
