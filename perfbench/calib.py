"""Machine-speed reference for the benchmark's timings.

On the shared 2-core machine the benchmark was built on, the speed of one
core drifts by 20-40 % over seconds to minutes, for the same computation and
in CPU time as much as in wall time.  Each timing is therefore taken next to a
fixed reference kernel and expressed at the reference speed:

    time * REFERENCE_S / (best-of-3 time of ``kernel()`` around it)

The kernel does the kind of work steinpoly does (``Fraction`` elimination,
tuple and dict churn) and uses nothing from steinpoly, so a change to the
package cannot move it.  Raw times are printed next to the scaled ones.
"""
from fractions import Fraction
from time import perf_counter

# best-of-3 time of kernel() on the tuning machine (2-core Intel Xeon,
# Python 3.11) at its usual speed; a constant, so scaled times stay
# comparable between runs and commits
REFERENCE_S = 6.0e-4

_N = 6
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(_N)] for i in range(_N)]


def kernel() -> int:
    """Gaussian elimination on a fixed 6x6 rational matrix."""
    m = [list(row) for row in _MATRIX]
    seen = {}
    for k in range(_N):
        p = next(i for i in range(k, _N) if m[i][k] != 0)
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, _N):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
            seen[(i, k)] = tuple(m[i])
    return len(seen)


def reference_time() -> float:
    """Best of three timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best
