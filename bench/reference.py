"""Machine-speed reference for the forrlab benchmark.

Usage: python3 reference.py RESULT_JSON

A fresh interpreter that imports numpy, but no forrlab code, and times four
fixed probes (best of three each): Python object churn, many calls on a
small array, vector math on a cache-sized array, and streaming over an
8 MiB array.  Writes {"imported_at", "probes"} to RESULT_JSON, where
imported_at is time.monotonic() right after ``import numpy``.
"""

import sys
import time

import numpy as np

IMPORTED_AT = time.monotonic()


def objects():
    table = {str(i): (i, [i]) for i in range(60_000)}
    sorted(table, key=len)


def small_calls():
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(1500):
        a = np.abs(a * 0.5 - 0.25)


def vector_math():
    a = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) - 0.5


def streaming():
    a = np.ones(1 << 20)
    b = np.empty_like(a)
    for _ in range(12):
        np.add(a, 1.0, out=b)


def best_of_three(probe) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    import json

    probes = [best_of_three(p)
              for p in (objects, small_calls, vector_math, streaming)]
    with open(sys.argv[1], "w") as fh:
        json.dump({"imported_at": IMPORTED_AT, "probes": probes}, fh)


if __name__ == "__main__":
    main()
