"""Picklable space handles for building one space in several processes.

A :class:`~repro.spaces.base.MetricSpace` built in one process is often
expensive (or impossible) to pickle wholesale — road networks hold graph
adjacency, string spaces hold corpora.  A :class:`SpaceHandle` instead
captures the *recipe*: a module-level factory plus its arguments, which
pickle by reference in a few bytes.  Each process (a shard, a benchmark's
program process) rebuilds the space on first use and memoises it, so it
pays construction once, not once per request.

Determinism note: every factory in this codebase is seeded, so two
processes building from the same handle hold *identical* spaces — the
foundation of the byte-identical guarantee for sharded serving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

#: Per-process memo of built spaces, keyed by the handle's identity key.
_SPACE_MEMO: Dict[Tuple, Any] = {}


@dataclass(frozen=True)
class SpaceHandle:
    """A picklable recipe for building a metric space in any process.

    ``factory`` must be a module-level callable (so it pickles by
    reference); ``args``/``kwargs`` must themselves be picklable and
    hashable enough to JSON-encode (they form the memo key).
    """

    factory: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> Tuple:
        """Hashable identity: same key ⇒ same space in every process."""
        return (
            f"{self.factory.__module__}.{self.factory.__qualname__}",
            json.dumps(self.args, sort_keys=True, default=repr),
            json.dumps(self.kwargs, sort_keys=True, default=repr),
        )

    def build(self) -> Any:
        """Construct the space fresh (no memo) — rarely what you want."""
        return self.factory(*self.args, **dict(self.kwargs))

    def space(self) -> Any:
        """The calling process's memoised space, built on first use."""
        key = self.key()
        space = _SPACE_MEMO.get(key)
        if space is None:
            space = self.build()
            _SPACE_MEMO[key] = space
        return space

    def distance(self, i: int, j: int) -> float:
        """Evaluate one distance against the memoised space.

        This bound method is a picklable ``DistanceFn``: it can be shipped
        to another process and evaluated there.
        """
        return float(self.space().distance(i, j))

    def describe(self) -> str:
        """Stable human-readable identity (also used in fingerprints)."""
        name, args, kwargs = self.key()
        return f"{name}(args={args}, kwargs={kwargs})"


def handle_for(factory: Callable[..., Any], *args: Any, **kwargs: Any) -> SpaceHandle:
    """Sugar: ``handle_for(sf_poi_space, n=200)`` → a :class:`SpaceHandle`."""
    return SpaceHandle(factory=factory, args=args, kwargs=kwargs)
