"""Named random streams derived from a single user seed.

Every stochastic component draws from its own stream keyed by
(seed, purpose, index), so results do not depend on execution order.
"""

import numpy as np

# Stream ids; appended to the seed entropy so streams never collide.
DATA = 0
STAGE = 1
MEMBER = 2
FACE = 3
CHAIN = 4
NOISE = 5
TEST = 6


def stream_rng(seed, *key):
    """Generator for the stream named by integer key components."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), *map(int, key)]))


def thread_count():
    """Worker threads used to fit forest members: always 1.

    Members are fit one after another on the calling thread (the work is
    GIL-bound Python); the function stays for callers that record the
    worker count.
    """
    return 1
