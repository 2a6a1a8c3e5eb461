"""Host speed, measured next to every scenario call.

The box that defined the benchmark is shared, and its speed drifts by up
to 2x over minutes: other tenants take the cores' shared resources, and
CPU time stretches with wall time. A run's median host time therefore
says as much about the neighbours as about the program. Just before and
just after each scenario call the benchmark times a fixed kernel. The
end-to-end time metrics are host seconds scaled by ``REFERENCE_S / mean
kernel seconds``, that is, seconds of a host running the kernel in
``REFERENCE_S``. Host seconds are printed beside them.
"""

from __future__ import annotations

import heapq
import time

#: Host seconds of :func:`calibrate` on the defining box in a quiet spell
#: (nproc 2, Python 3.11.7). Only a unit: changing it rescales every time.
REFERENCE_S = 0.1

_EVENTS = 40_000


class _Event:
    __slots__ = ("time", "callback")

    def __init__(self, time_: int, callback) -> None:
        self.time = time_
        self.callback = callback


def calibrate() -> float:
    """Host seconds of a fixed interpreter-bound kernel.

    It does what the simulator's event loop does: heap pushes and pops of
    slotted objects, bound-method calls and dict stores.
    """
    start = time.perf_counter()
    heap = []
    table = {}

    def store(t: int) -> None:
        table[t & 4095] = t

    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 10007, i, _Event(i, store)))
    while heap:
        _t, _seq, event = heapq.heappop(heap)
        event.callback(event.time)
    return time.perf_counter() - start
