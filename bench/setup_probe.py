"""Build one workload's program state in a fresh interpreter, then exit.

    python3 bench/setup_probe.py <workload> <seed>

run.py times this process from spawn to exit; the median over several
spawns is the ``setup_s`` metric (interpreter start, ethcold import,
wordlist load and the workload's wallet state).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    workloads.make(sys.argv[1], ROOT, int(sys.argv[2])).setup()
