"""Fixed reference task that gauges the host's current speed.

    python3 bench/calibrate.py

A fresh interpreter imports the third-party libraries the pipeline
uses and runs a fixed loop of small numpy operations; of the tasks
tried, these tracked the pipeline's drift best (README.md).  It imports
nothing from textforage, so no change to the program
moves its time; `run.py` times it before and after every timed
pipeline and scales `wall_s` by it (see README.md).
"""

import numpy as np
import scipy.special  # noqa: F401
import yaml  # noqa: F401


def main(repeats: int = 6000) -> float:
    rng = np.random.default_rng(0)
    q = rng.random((200, 6))
    q /= q.sum(axis=1, keepdims=True)
    p = rng.random(6)
    p /= p.sum()
    total = 0.0
    for _ in range(repeats):
        total += float(np.sum(q * np.log2(q / p), axis=1)[0])
    return total


if __name__ == "__main__":
    main()
