"""Seeded, named random substreams.

All randomness in the toolkit flows from a single top-level seed through
named substreams, so that e.g. dataset generation and attack noise are
independent yet bit-reproducible across runs.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a generator for the substream `name` of the master `seed`.

    Identical (seed, name) pairs yield bit-identical streams; distinct
    names yield statistically independent streams.
    """
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key]))
