"""Known-bad fixture: direct clock reads in an instrumented module."""

import time
from time import perf_counter as tick

from repro.telemetry import NULL_TRACER


def run_item(tracer):
    t0 = time.perf_counter()  # direct read in an instrumented module
    started = time.time()  # and the epoch variant
    dt = tick() - t0  # aliased import must still resolve
    span = tracer.span("item", category="exec")  # span without `with`
    NULL_TRACER.span("leaky", category="exec")  # receiver tail is a tracer
    return started, dt, span
