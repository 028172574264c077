"""A campaign whose docking lane runs on its own thread.

The lane writes campaign state through a helper method (``self._record``)
and never takes the lock the campaign reads that state under.  A second
lane, built from a class of this file, is handed over as
``Thread(target=lane.run)``.  Three attributes race: ``scores``,
``iteration`` and ``Lane.done``.
"""

import threading


class Campaign:
    def __init__(self):
        self._lock = threading.Lock()
        self.scores = {}
        self.iteration = 0

    def start(self):
        lane = threading.Thread(target=self._docking_lane)
        lane.start()
        return lane

    def _docking_lane(self):
        for compound in ("a", "b", "c"):
            self._record(compound, -7.5)

    def _record(self, compound, score):
        # thread context, reached through self: no lock held
        self.scores[compound] = score
        self.iteration += 1

    def snapshot(self):
        with self._lock:
            return dict(self.scores), self.iteration


class Lane:
    def __init__(self, campaign):
        self.campaign = campaign
        self.done = 0

    def run(self):
        self.done += 1

    def progress(self):
        return self.done


def launch(campaign):
    lane = Lane(campaign)
    worker = threading.Thread(target=lane.run)
    worker.start()
    return lane, worker
