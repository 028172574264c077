"""Helpers returning an unseeded draw and a wall-clock-derived seed."""

import random
import time


def jitter():
    # unseeded global RNG draw, handed to the caller
    return random.random()


def wall_seed():
    # time-derived seed source
    return int(time.time())
