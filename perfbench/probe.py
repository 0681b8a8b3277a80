"""Fresh-interpreter timings, one per process, printed as one JSON line.

    python3 perfbench/probe.py setup SRC      host-speed kernel, then import
                                              + first harvested_steering, split
                                              into layers
    python3 perfbench/probe.py cold KIND SRC  first oracle call of KIND (p, c, x)

SRC is the directory that holds the ``mirrorsteer`` package.
"""

import json
import math
import sys
import time


def reference_s() -> float:
    """Time of the pure-Python host-speed kernel, an integer loop that does
    not touch the package: best of three runs, so that an interrupt in one
    run does not count."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _first_call(ms):
    pair = ms.DetectorPair(0.1, 0.1)
    ms.harvested_steering(pair, ms.BoundaryGeometry("parallel", 1.0, 1.0))


def main(argv: list[str]) -> dict[str, float]:
    mode, src = argv[0], argv[-1]
    sys.path.insert(0, src)
    if mode == "setup":
        # the kernel runs first, in this interpreter, so that it sees the
        # host speed the imports below get
        ref = reference_s()
        t0 = time.perf_counter()
        import scipy.special  # noqa: F401  (numpy comes with it)

        t1 = time.perf_counter()
        import mirrorsteer as ms

        t2 = time.perf_counter()
        _first_call(ms)
        t3 = time.perf_counter()
        return {"reference_s": ref, "scipy_special_s": t1 - t0,
                "mirrorsteer_s": t2 - t1, "first_call_s": t3 - t2}
    if mode == "cold":
        import mirrorsteer as ms

        pair = ms.DetectorPair(0.1, 0.1)
        geom = ms.BoundaryGeometry("parallel", 0.5, 1.0)
        call = {
            "p": lambda: ms.numeric_probability(pair.omega_a, geom.boundary_distance),
            "c": lambda: ms.numeric_c(pair, geom),
            "x": lambda: ms.numeric_x(pair, geom),
        }[argv[1]]
        start = time.perf_counter()
        call()
        return {"cold_s": time.perf_counter() - start}
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
