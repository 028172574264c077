"""Known-bad fixture: PR 1's ``run_raptor`` busy-accounting race, reintroduced.

A function reachable from a thread pool does ``worker_busy[slot] += ...``
on a closed-over array without holding a lock — the exact lost-update
race the lockset rule exists to catch.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

worker_busy = np.zeros(4)
total_items = 0


def run_bulk(bulk, slot):
    for item in bulk:
        run_item(item, slot)


def run_item(item, slot):
    global total_items
    elapsed = item()
    worker_busy[slot] += elapsed  # BAD: unlocked read-modify-write
    total_items += 1  # BAD: unlocked global counter


def drive(bulks):
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(run_bulk, bulks, range(len(bulks))))
