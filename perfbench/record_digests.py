"""Record the result digest of every cell seed into ``digests.json``.

Usage, from the repository root::

    python3 perfbench/record_digests.py                  # every workload
    python3 perfbench/record_digests.py fleet-10k        # just one

The benchmark fails any repetition whose digest differs from the one
recorded here, so re-record only after a change that is meant to alter
simulation results, and say so in that change.  A cell seed whose run
raises or breaks a workload invariant is not recorded and makes this
script exit non-zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import CELL_SEEDS, WORKLOADS, digest

    names = list(argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    failures = 0
    for name in names:
        workload = WORKLOADS[name]
        digests = {}
        for seed in range(1, CELL_SEEDS + 1):
            result = workload.prepare(seed)()
            problems = workload.check(result)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                failures += 1
                continue
            digests[str(seed)] = digest(result)
            print(f"{name} seed {seed}: {digests[str(seed)]}", flush=True)
        recorded[name] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
