"""Resolution tracing: observe *when* and *why* oracle calls happen.

A :class:`TracingOracle` wraps any oracle and records every charged call
as a :class:`CallEvent` (sequence number, pair, value, wall-clock offset,
the active phase label, and — for charges committed by the batched
execution pipeline — the batch id).  Traces answer the questions the
aggregate counters cannot: how calls cluster over an algorithm's lifetime,
how the bootstrap/algorithm phases split, and how quickly the call rate
decays as the shared graph warms up — the paper's compounding effect, per
run.

Phase labelling is delegated to a thread-local
:class:`~repro.obs.spans.SpanTracer`, so concurrent engine workers nest
spans independently instead of interleaving on one shared stack.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.oracle import DistanceOracle, Pair
from repro.obs.spans import SpanTracer


@dataclass(frozen=True)
class CallEvent:
    """One charged oracle call."""

    sequence: int
    i: int
    j: int
    distance: float
    elapsed_seconds: float
    phase: str
    #: Batch id when the charge was committed by repro.exec; None for
    #: inline synchronous resolutions.
    batch: Optional[int] = None


class TracingOracle(DistanceOracle):
    """Oracle wrapper that records every charged call.

    Use :meth:`phase` to label sections of a run::

        oracle = TracingOracle(space.distance, space.n)
        with oracle.phase("bootstrap"):
            bootstrap_with_landmarks(resolver)
        with oracle.phase("prim"):
            prim_mst(resolver)

    Phases nest, and the stack behind them is **thread-local** (a
    :class:`~repro.obs.spans.SpanTracer`): each engine worker's spans nest
    independently, so calls committed by concurrent jobs are attributed to
    the committing thread's own phase instead of whatever another worker
    pushed last.

    The oracle is itself a context manager when constructed with
    ``csv_path``: the trace flushes to that file on exit, even when the
    traced run raises; nested re-entry flushes once, at the outermost
    exit::

        with TracingOracle(space.distance, space.n, csv_path="trace.csv") as oracle:
            run_experiment(oracle)
    """

    def __init__(
        self,
        distance_fn,
        n,
        cost_per_call: float = 0.0,
        budget=None,
        csv_path=None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        super().__init__(distance_fn, n, cost_per_call=cost_per_call, budget=budget)
        self.events: List[CallEvent] = []
        self.csv_path = csv_path
        self.tracer = tracer if tracer is not None else SpanTracer(root="default")
        self._cm_depth = 0
        self._start = time.perf_counter()

    @property
    def _phase(self) -> str:
        return self.tracer.current

    def _on_charged(self, key: Pair, value: float) -> None:
        # One hook covers both resolution paths: inline __call__ and the
        # batched pipeline's record() commits (the latter carry a batch id).
        self.events.append(
            CallEvent(
                sequence=len(self.events),
                i=key[0],
                j=key[1],
                distance=value,
                elapsed_seconds=time.perf_counter() - self._start,
                phase=self._phase,
                batch=self.active_batch,
            )
        )

    # -- phases -------------------------------------------------------------

    def phase(self, label: str) -> "_PhaseContext":
        """Context manager labelling subsequent calls with ``label``."""
        return _PhaseContext(self, label)

    @property
    def current_phase(self) -> str:
        """The calling thread's innermost active phase label."""
        return self._phase

    # -- analysis -------------------------------------------------------------

    def calls_per_phase(self) -> dict:
        """Charged-call count per phase label."""
        out: dict = {}
        for event in self.events:
            out[event.phase] = out.get(event.phase, 0) + 1
        return out

    def write_csv(self, path) -> None:
        """Dump the trace as CSV (sequence, i, j, distance, t, phase, batch).

        The file is replaced atomically (temp file + rename), so repeated
        flushes are idempotent: exactly one header, never a torn or
        double-written file — even when flushed from ``__exit__`` more
        than once over the oracle's lifetime.
        """
        path = os.fspath(path)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["sequence", "i", "j", "distance", "elapsed_seconds", "phase", "batch"]
            )
            for e in self.events:
                writer.writerow(
                    [
                        e.sequence,
                        e.i,
                        e.j,
                        e.distance,
                        e.elapsed_seconds,
                        e.phase,
                        "" if e.batch is None else e.batch,
                    ]
                )
        os.replace(tmp_path, path)

    def flush(self) -> None:
        """Write the trace to ``csv_path`` now (idempotent)."""
        if self.csv_path is None:
            raise ValueError("TracingOracle.flush needs csv_path")
        self.write_csv(self.csv_path)

    def reset(self) -> None:
        """Clear events and phase state in addition to the oracle cache."""
        super().reset()
        self.events = []
        self.tracer.reset()
        self._start = time.perf_counter()

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "TracingOracle":
        if self.csv_path is None:
            raise ValueError(
                "TracingOracle used as a context manager needs csv_path "
                "(where to flush the trace on exit)"
            )
        self._cm_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        # Flush even when the traced run raised: a partial trace of a
        # failed experiment is exactly when you want the evidence.  Nested
        # re-entry flushes once, when the outermost context exits.
        self._cm_depth = max(0, self._cm_depth - 1)
        if self._cm_depth == 0:
            self.flush()


class _PhaseContext:
    def __init__(self, oracle: TracingOracle, label: str) -> None:
        self._oracle = oracle
        self._span = oracle.tracer.span(label)

    def __enter__(self) -> TracingOracle:
        self._span.__enter__()
        return self._oracle

    def __exit__(self, *exc_info) -> None:
        self._span.__exit__(*exc_info)


def load_trace(path) -> List[CallEvent]:
    """Read a CSV trace written by :meth:`TracingOracle.write_csv`."""
    events: List[CallEvent] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            batch = row.get("batch")  # absent in pre-batching traces
            events.append(
                CallEvent(
                    sequence=int(row["sequence"]),
                    i=int(row["i"]),
                    j=int(row["j"]),
                    distance=float(row["distance"]),
                    elapsed_seconds=float(row["elapsed_seconds"]),
                    phase=row["phase"],
                    batch=int(batch) if batch else None,
                )
            )
    return events
