"""Deterministic random streams for replicated experiments.

Streams come from the counter-based Philox generator keyed by
(seed, stream_id), so any worker can open any stream without
coordination and results do not depend on scheduling. The id layout
keeps every consumer disjoint:

- replication j of a plain run uses id j
- sweep point i shifts its replications by (i + 1) * 2**32
- the bandwidth pilot of a run adds 2**47 to the run's base id
- reference computations (high-N finite differences) use ids starting
  at 2**46
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SWEEP_STRIDE",
    "PILOT_OFFSET",
    "STREAM_REFERENCE",
    "stream",
    "sweep_base",
]

#: id stride between sweep grid points
SWEEP_STRIDE = 2**32

#: id offset of the pilot stream relative to a run's base id
PILOT_OFFSET = 2**47

#: first id reserved for reference computations
STREAM_REFERENCE = 2**46


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Open the generator for one (seed, stream_id) pair."""
    if not (0 <= seed < 2**64 and 0 <= stream_id < 2**64):
        raise ValueError("seed and stream_id must lie in [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=[seed, stream_id]))


def sweep_base(point_index: int) -> int:
    """Base stream id of sweep grid point ``point_index`` (0-based)."""
    if point_index < 0:
        raise ValueError("point_index must be nonnegative")
    return (point_index + 1) * SWEEP_STRIDE
