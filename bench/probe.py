"""Set-up probe: a fresh interpreter imports the package and makes its first calls.

Usage: python3 bench/probe.py SRC_DIR

Prints one JSON line with the import time, the first-use time and the file
the package was imported from.  The first calls build what every run pays
for lazily on first use (today the lambdified Q/Qi polynomials).
"""

import json
import sys
import time


def first_use() -> None:
    """First calls into the scalar Q, grid Q and Qi paths."""
    import numpy as np

    from ballisticwaves import airyq

    airyq.q(2, airyq.QArgs(1.0, 0.5, -1.0))
    airyq.q_table_scaled_grid(1, np.array([1.0]), np.array([0.5]), -1.0)
    for k in (0, -1, -2):
        airyq.qi(k, -1.0)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import ballisticwaves

    t1 = time.perf_counter()
    first_use()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1,
                      "file": ballisticwaves.__file__}))
