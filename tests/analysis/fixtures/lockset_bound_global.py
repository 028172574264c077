"""A module-level counter bumped from two kinds of thread entry.

``Counter.start`` hands its bound method ``_run`` to a thread and
``start_free`` hands over the free function ``_free``; both do an
unlocked ``TOTALS["done"] += 1`` on the module's dict, so both race.
"""

import threading

TOTALS = {"done": 0}


class Counter:
    def start(self):
        threading.Thread(target=self._run).start()

    def _run(self):
        TOTALS["done"] += 1


def _free():
    TOTALS["done"] += 1


def start_free():
    threading.Thread(target=_free).start()
