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

``replication_ids`` and ``sweep_base`` raise rather than hand out ids that
cross into another consumer's block.

Within its stream, a replication of N draws reads N uniforms and then its
noise, whatever the estimator: lr and fd pass over the uniforms with
``skip``, so every estimator of a replication sees the same noise.

``stream`` opens a new generator. ``rekey`` moves an open one to the start
of another stream, with the same draws as ``stream`` and at a fraction of
its cost; a loop over many streams re-keys one generator. Philox is
counter-based, so ``skip`` moves a generator far into its stream without
drawing what it passes over.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SWEEP_STRIDE",
    "PILOT_OFFSET",
    "STREAM_REFERENCE",
    "stream",
    "rekey",
    "skip",
    "sweep_base",
    "replication_ids",
]

#: id stride between sweep grid points
SWEEP_STRIDE = 2**32

#: id offset of the pilot stream relative to a run's base id
PILOT_OFFSET = 2**47

#: first id reserved for reference computations
STREAM_REFERENCE = 2**46


def _key(seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of a stream, as exact 64-bit words (a plain list would
    pass through float64 and alias seeds from 2**63 on)."""
    if not (0 <= seed < 2**64 and 0 <= stream_id < 2**64):
        raise ValueError("seed and stream_id must lie in [0, 2**64)")
    return np.array([seed, stream_id], dtype=np.uint64)


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Open the generator for one (seed, stream_id) pair."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream_id)))


def rekey(gen: np.random.Generator, seed: int, stream_id: int) -> np.random.Generator:
    """Move ``gen``, a Philox generator, to the start of stream (seed, stream_id).

    The draws that follow are those of ``stream(seed, stream_id)`` bit for
    bit: the state is the key, a zero counter and an empty buffer. Assigning
    it skips the seed sequence a new generator gathers. Returns ``gen``.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _key(seed, stream_id)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def skip(gen: np.random.Generator, draws: int) -> np.random.Generator:
    """Move ``gen``, a Philox generator at the start of a stream, past its
    next ``draws`` 64-bit outputs, which is what ``draws`` uniforms consume.

    Philox makes its outputs in blocks of four: the counter jumps the whole
    blocks, and the rest of the last one is drawn. Returns ``gen``.
    """
    bits = gen.bit_generator
    bits.advance(draws // 4)
    bits.random_raw(draws % 4)
    return gen


def sweep_base(point_index: int) -> int:
    """Base stream id of sweep grid point ``point_index`` (0-based).

    The blocks of points 0 .. 16382 lie below ``STREAM_REFERENCE``.
    """
    if point_index < 0:
        raise ValueError("point_index must be nonnegative")
    base = (point_index + 1) * SWEEP_STRIDE
    if base >= STREAM_REFERENCE:
        raise ValueError(
            f"sweep point {point_index} would take stream ids reserved for references"
        )
    return base


def replication_ids(stream_base: int, replications: int) -> range:
    """The stream ids of a run's replications: ``stream_base + j``.

    They must stay inside the sweep block of ``stream_base`` and below
    ``STREAM_REFERENCE``; otherwise two runs, or a run and a reference,
    would share streams.
    """
    if stream_base < 0 or replications < 0:
        raise ValueError("stream_base and replications must be nonnegative")
    stop = stream_base + replications
    block_end = (stream_base // SWEEP_STRIDE + 1) * SWEEP_STRIDE
    if stop > min(block_end, STREAM_REFERENCE):
        raise ValueError(
            f"{replications} replications from stream id {stream_base} run into the next "
            "stream block"
        )
    return range(stream_base, stop)
