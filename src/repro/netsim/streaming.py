"""Out-of-core week generation: the plant simulated in line blocks.

:class:`DslSimulator` materialises the full population -- a dense
``(n_lines, n_weeks, 25)`` measurement cube plus per-line ticket and
traffic state -- before the first week is even simulated, which caps a
run at a few hundred thousand lines on one box.  The paper's Saturday
campaign covers *millions* of lines, so this module provides the
streaming path: :class:`StreamingSimulator` partitions the plant into
fixed blocks of :data:`STREAM_BLOCK_LINES` lines, simulates each block
independently over the whole horizon, and yields per-(chunk, week)
:class:`WeekBlock` payloads that the line-week store appends
incrementally.  Peak memory is one chunk's week matrices plus the O(n)
per-line population arrays -- never the full cube.

**Chunk-size invariance.**  Randomness is keyed per *block*, not per
chunk: block ``b`` draws from ``SeedSequence(entropy=seed,
spawn_key=(salt, b))``, and a requested ``chunk_lines`` is rounded up to
a whole number of blocks, so every chunking of the same config produces
bit-identical features and ticket vectors.  The "monolithic" streaming
run is simply the single-chunk case (``chunk_lines=None``) -- there is
no separate code path to diverge from.

**What a block simulates.**  Each block is a
:class:`~repro.netsim.simulator.PlantBlock` over its lines -- the same
object :class:`DslSimulator` is for the whole plant -- so it runs the
one weekly step (fault evolution and onsets, shared-infrastructure
precursors, customer edge / precursor / billing tickets through a real
:class:`Dispatcher`, the Saturday line test) on the block's two
substreams.  Cross-line structures that must be globally consistent --
population, physics, topology, the outage schedule, and pre-scheduled
correlated group-fault events -- are built once by
:func:`~repro.netsim.simulator.build_plant_models` from their own config
seeds and *restricted* to each block
(:meth:`GroupFaultModel.line_strength_range`), so a binder event
straddling a block boundary degrades its members in every block it
touches.

Because blocks are independent, a streaming run is **not** bit-identical
to ``DslSimulator.run`` (which threads one global RNG through all lines)
-- it is the same generative process under a different, scalable seeding
scheme.  Only the Table-2 features and ticket-recency vectors leave a
block: its fault-event ledger is discarded and no BRAS traffic is
exported, since the streaming cycle's consumers (store, encoder, scorer,
dispatcher) need neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.netsim.simulator import (
    SATURDAY_OFFSET,
    PlantBlock,
    SimulationConfig,
    build_plant_models,
)
from repro.tickets.customers import build_customers

__all__ = ["STREAM_BLOCK_LINES", "WeekBlock", "StreamingSimulator",
           "stream_weeks"]

#: Fixed RNG-substream granularity, in lines.  Chunk sizes round up to a
#: multiple of this, which is what makes every chunking bit-identical.
STREAM_BLOCK_LINES = 8192

#: Distinct spawn-key salts so the simulation stream and the customer
#: behaviour stream of a block can never collide.
_SIM_SALT = 0x53544D
_CUSTOMER_SALT = 0x435553


@dataclass(frozen=True)
class WeekBlock:
    """One chunk's Saturday campaign output for one week.

    Attributes:
        week: week index in ``[0, n_weeks)``.
        day: absolute day of the line test (``7 * week + 5``).
        start, stop: the ``[start, stop)`` line range this block covers.
        features: ``(stop - start, 25)`` float32 Table-2 matrix.
        last_ticket_day: ``(stop - start,)`` int64 most-recent customer
            ticket day strictly before ``day``, -1 where none.
    """

    week: int
    day: int
    start: int
    stop: int
    features: np.ndarray
    last_ticket_day: np.ndarray


class StreamingSimulator:
    """Chunked generation over a fixed-block-substream plant."""

    def __init__(self, config: SimulationConfig | None = None):
        self.config = config or SimulationConfig()
        self.models = build_plant_models(self.config)
        self.population = self.models.population
        self.group_faults = self.models.group_faults

    @property
    def n_lines(self) -> int:
        return self.population.n_lines

    # ----- chunked generation ----------------------------------------------

    def run_streaming(
        self, chunk_lines: int | None = None
    ) -> Iterator[WeekBlock]:
        """Yield :class:`WeekBlock` payloads, chunk-major then week-ordered.

        ``chunk_lines`` bounds peak memory (it is rounded *up* to a whole
        number of :data:`STREAM_BLOCK_LINES` blocks); ``None`` runs the
        whole plant as one chunk -- the monolithic reference that any
        chunked run reproduces bit for bit.
        """
        n = self.n_lines
        n_weeks = self.config.n_weeks
        if chunk_lines is None:
            chunk = n
        else:
            if chunk_lines <= 0:
                raise ValueError("chunk_lines must be positive")
            blocks = -(-chunk_lines // STREAM_BLOCK_LINES)
            chunk = blocks * STREAM_BLOCK_LINES
        for chunk_start in range(0, n, chunk):
            chunk_stop = min(chunk_start + chunk, n)
            feats: list[list[np.ndarray]] = [[] for _ in range(n_weeks)]
            lasts: list[list[np.ndarray]] = [[] for _ in range(n_weeks)]
            for start in range(chunk_start, chunk_stop, STREAM_BLOCK_LINES):
                stop = min(start + STREAM_BLOCK_LINES, chunk_stop)
                block_feats, block_lasts = self._block_weeks(
                    start, stop, start // STREAM_BLOCK_LINES
                )
                for w in range(n_weeks):
                    feats[w].append(block_feats[w])
                    lasts[w].append(block_lasts[w])
            for w in range(n_weeks):
                yield WeekBlock(
                    week=w,
                    day=w * 7 + SATURDAY_OFFSET,
                    start=chunk_start,
                    stop=chunk_stop,
                    features=np.concatenate(feats[w], axis=0),
                    last_ticket_day=np.concatenate(lasts[w]),
                )

    # ----- one block over the whole horizon --------------------------------

    def _block_rng(self, salt: int, entropy: int, block: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=entropy, spawn_key=(salt, block))
        )

    def _block_weeks(
        self, start: int, stop: int, block: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Simulate lines ``[start, stop)`` over every week.

        Returns per-week float32 feature matrices and int64 ticket-recency
        vectors, both indexed relative to ``start``.
        """
        cfg = self.config
        c = stop - start
        plant = PlantBlock(
            cfg, self.models, start, stop,
            rng=self._block_rng(_SIM_SALT, cfg.seed, block),
            customers=build_customers(
                c, cfg.n_weeks, cfg.customers,
                rng=self._block_rng(_CUSTOMER_SALT, cfg.customers.seed, block),
            ),
        )
        feats: list[np.ndarray] = []
        lasts: list[np.ndarray] = []
        for w in range(cfg.n_weeks):
            features, _ = plant.step_week()
            feats.append(np.ascontiguousarray(features, dtype=np.float32))
            lasts.append(
                plant.ticket_log.last_ticket_day_before(
                    c, w * 7 + SATURDAY_OFFSET
                ).astype(np.int64)
            )
        return feats, lasts


def stream_weeks(
    config: SimulationConfig | None = None, chunk_lines: int | None = None
) -> Iterator[WeekBlock]:
    """Convenience wrapper: build a :class:`StreamingSimulator` and stream."""
    yield from StreamingSimulator(config).run_streaming(chunk_lines)
