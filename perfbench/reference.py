"""A frozen reference loop that measures how fast the host runs right now.

On a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes, with no CPU steal to show for it (measured while the
benchmark was defined: a fixed pure-Python loop alternated between 1.1x and
1.5x its best time, and whole 30 s runs moved by 0.65x to 1.3x).  Wall-clock
figures of one run then say more about the host than about the program.

The benchmark therefore runs this loop between ops, for about a twentieth
of each op's time, and scales its time figures by the loop's mean duration
over REF_NOMINAL_S: a figure reads as it would on a host where the loop
takes exactly REF_NOMINAL_S.  The loop uses the same kinds of arithmetic as
the library (rational Horner, float recurrences, big-integer products) but
none of its code, so no change to the program moves it.  Changing this file
re-bases every scaled figure: compare only runs made with the same copy.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.0025
DUTY = 0.05  # reference time per unit of measured time

_COEFFS = [Fraction((-1) ** k * (k * k + 3), (k + 1) * 7) for k in range(30)]
_POINTS = (Fraction(3, 7), Fraction(11, 5), Fraction(5, 3))


def reference_loop() -> float:
    """Seconds taken by one pass of the fixed loop."""
    start = perf_counter()
    for x in _POINTS:
        value = Fraction(0)
        for c in _COEFFS:
            value = value * x + c
    s = 0.0
    for k in range(20000):
        s = s * 0.5 + k
    n = 0
    for k in range(3000):
        n = (n * 1000003 + k) % (1 << 89)
    return perf_counter() - start


class Speedometer:
    """Reference-loop samples taken during one part of a run."""

    def __init__(self, duty: float = DUTY):
        self.duty = duty
        self.count = 0
        self.total_s = 0.0

    def sample(self, measured_s: float) -> None:
        """Run the loop for about ``duty`` times ``measured_s`` (at least once)."""
        spent = 0.0
        while True:
            spent += reference_loop()
            self.count += 1
            if spent >= self.duty * measured_s:
                break
        self.total_s += spent

    def slowdown(self) -> float:
        """Host slowness relative to nominal: mean loop time over REF_NOMINAL_S."""
        return self.total_s / self.count / REF_NOMINAL_S
