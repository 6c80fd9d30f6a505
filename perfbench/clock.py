"""Timings in reference seconds, steady against swings in CPU speed.

On a shared host the speed of one core can change by a factor of two
from one second to the next, as neighbours start and stop.  The
benchmark therefore times short units (about 0.1 s each), runs a fixed
calibration loop of its own (plain Python, no polydyn) between them,
and scales each unit's wall time by the speed the loop measured just
before and just after it:

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

so a unit that ran while the core was slow is not reported as slower
code.  The calibration never calls the package, so a change to the
package cannot move it.  Units much longer than the swings (a 25 s
catalog search) cannot be corrected this way and are reported in wall
seconds.

Set-ups (importing, building large tables) follow the host's memory
speed more than its interpreter speed: over 211 fresh processes the
import time correlated 0.6 with the time to fault in fresh pages, and
not at all with the loop above.  A set-up is therefore scaled by
touch_memory() run in its process just before and just after it.
"""

from __future__ import annotations

import time

# Nominal duration of one calibrate() call; fixes the scale of reported
# figures.  With CPython 3.11 on a 2-core x86_64 cloud VM one call took
# 2.3 to 5 ms as the host's load changed, and about 5 ms most often.
REFERENCE_S = 0.005

# Nominal duration of one touch_memory() call on the same machine; it
# took 5 to 10 ms, about 7 ms most often.
REFERENCE_TOUCH_S = 0.007
_TOUCH_BYTES = 8 * 1024 * 1024

_LABEL = "[" + ",".join(f"\\(q{i}\\,p{i % 2}\\):\\(q{i}\\,p{i % 3}\\)" for i in range(12)) + "]"


def calibrate() -> float:
    """Seconds taken by fixed label parsing and tuple-keyed dict building."""
    t0 = time.perf_counter()
    for _ in range(50):
        table = {}
        key, cur = [], []
        i = 0
        while i < len(_LABEL):
            ch = _LABEL[i]
            if ch == "\\":
                cur.append(_LABEL[i + 1])
                i += 2
                continue
            if ch == ":":
                key, cur = cur, []
            elif ch == ",":
                table["".join(key)] = "".join(cur)
                key, cur = [], []
            else:
                cur.append(ch)
            i += 1
    counts = {}
    for i in range(3000):
        k = ("s", i % 97, str(i % 31))
        counts[k] = counts.get(k, 0) + 1
    pairs = [(i, str(i)) for i in range(2000)]
    table = {b: a for a, b in pairs}
    return time.perf_counter() - t0


class Speed:
    """Scales wall times of consecutive timed units to reference seconds."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, wall_s: float) -> float:
        """Call right after the unit: calibrates again and scales its time."""
        before, self.last = self.last, calibrate()
        return wall_s * 2 * REFERENCE_S / (before + self.last)


def touch_memory() -> float:
    """Seconds to allocate fresh memory and write to each of its pages."""
    t0 = time.perf_counter()
    block = bytearray(_TOUCH_BYTES)
    for i in range(0, _TOUCH_BYTES, 4096):
        block[i] = 1
    del block
    return time.perf_counter() - t0


def scale_setup(wall_s: float, touch_before: float, touch_after: float) -> float:
    """A set-up's wall time in reference seconds, from touches around it."""
    return wall_s * 2 * REFERENCE_TOUCH_S / (touch_before + touch_after)
