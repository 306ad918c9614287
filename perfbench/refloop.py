"""Fixed pure-Python reference loop used to calibrate wall times.

The host this benchmark runs on changes speed from minute to minute, and
every hamdirac job is single-threaded pure Python: exact Fraction
arithmetic over dict-based polynomials for the symbolic layers, float
arithmetic over tuples for the numerics.  The loop below does the same kinds
of work on fixed data.  Timing it right before and after a pass gives `c`;
multiplying the pass's wall time by `(C_REF / c)^EXPONENT` turns it into
seconds at the reference speed, which cancels most of the host's drift.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the median round time on the machine the bounds were set on
# (2 vCPUs, Python 3.11.7), where it swung between 0.006 and 0.012 s with
# the host.  Fixed once; never re-measured per run.
C_REF = 0.0100

# hamdirac's passes do not speed up as much as the reference loop when the
# host does: in interleaved measurements (42 to 86 samples each) a
# 12-coordinate report's wall time followed c^0.73 to c^0.84 and a simulate
# job c^0.61 to c^0.74, and dividing by c itself overcorrected in the host's
# fast phases.  A pass therefore counts
# wall * (C_REF / c)^EXPONENT; see README for the measured spreads.  The
# import of hamdirac.cli follows the import of numpy alone in the same way,
# and setup_s uses the same exponent.
EXPONENT = 0.75

# Calibration of setup_s, which is module loading, not interpreter work: the
# import time of numpy alone in a fresh interpreter, about its median on the
# machine the bounds were set on (0.07 to 0.16 s there).
NUMPY_IMPORT_REF = 0.12

EDGE_ROUNDS = 10  # rounds right before and right after the pass


def _exact_part():
    # Gauss-Jordan inverse of the 6x6 Hilbert matrix over Q.
    n = 6
    a = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    # Dict-of-monomials polynomial product with rational coefficients.
    p = {((0, k),): Fraction(k + 1, k + 2) for k in range(8)}
    q = {((1, k),): Fraction(1, k + 3) for k in range(8)}
    prod: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            prod[m] = prod.get(m, Fraction(0)) + c1 * c2
    return a[n - 1][2 * n - 1] + sum(prod.values())


def _float_part():
    # RK4 on the unit oscillator, written the way numerics.integrate is.
    y = (1.0, 0.0)
    h = 1e-3
    half, sixth = h / 2.0, h / 6.0
    rhs = lambda t, y: (y[1], -y[0])  # noqa: E731
    t = 0.0
    for _ in range(600):
        k1 = rhs(t, y)
        k2 = rhs(t, tuple(a + half * b for a, b in zip(y, k1)))
        k3 = rhs(t, tuple(a + half * b for a, b in zip(y, k2)))
        k4 = rhs(t, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        t += h
    return y


def _round() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        _exact_part()
    _float_part()
    return time.perf_counter() - t0


class Calibrated:
    """Times a block and samples the reference speed right around it.

    EDGE_ROUNDS rounds run right before and right after the block; `c` is
    their median round time and `wall` the block's own wall time.
    """

    def __enter__(self):
        self.rounds = [_round() for _ in range(EDGE_ROUNDS)]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.rounds += [_round() for _ in range(EDGE_ROUNDS)]
        return False

    @property
    def c(self) -> float:
        return statistics.median(self.rounds)

    @property
    def seconds(self) -> float:
        """Wall time at the reference speed: wall * (C_REF / c)^EXPONENT."""
        return self.wall * (C_REF / self.c) ** EXPONENT
