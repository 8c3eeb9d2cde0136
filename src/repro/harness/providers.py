"""Provider factory shared by the harness, examples, and benchmarks."""

from __future__ import annotations

import math
from typing import Optional

from repro.bounds import (
    Adm,
    AdmIncremental,
    Aesa,
    DirectFeasibilityTest,
    Laesa,
    Splub,
    Tlaesa,
    TriScheme,
)
from repro.core.bounds import BoundProvider, TrivialBounder
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.resolver import SmartResolver

#: Provider names accepted by :func:`make_provider`.
PROVIDER_NAMES = (
    "none",
    "tri",
    "splub",
    "adm",
    "adm-inc",
    "laesa",
    "tlaesa",
    "aesa",
    "dft",
)

#: Providers whose bootstrap step spends oracle calls up front.
LANDMARK_PROVIDERS = ("laesa", "tlaesa", "aesa")


def make_provider(
    name: str,
    graph: PartialDistanceGraph,
    max_distance: float = math.inf,
    num_landmarks: Optional[int] = None,
) -> BoundProvider:
    """Instantiate a bound provider by its short name.

    ``num_landmarks`` only applies to the landmark schemes ("laesa",
    "tlaesa"); call :meth:`bootstrap` on the returned provider (or use
    :func:`attach_provider`) to spend the landmark budget.
    """
    name = name.lower()
    if name == "none":
        return TrivialBounder(graph, max_distance)
    if name == "tri":
        return TriScheme(graph, max_distance)
    if name == "splub":
        return Splub(graph, max_distance)
    if name == "adm":
        return Adm(graph, max_distance)
    if name == "adm-inc":
        return AdmIncremental(graph, max_distance)
    if name == "laesa":
        return Laesa(graph, max_distance, num_landmarks)
    if name == "tlaesa":
        return Tlaesa(graph, max_distance, num_landmarks)
    if name == "aesa":
        return Aesa(graph, max_distance)
    if name == "dft":
        return DirectFeasibilityTest(graph, max_distance=min(max_distance, 1e9))
    raise ValueError(f"unknown provider {name!r}; choose from {PROVIDER_NAMES}")


def attach_provider(
    resolver: SmartResolver,
    name: str,
    max_distance: float = math.inf,
    num_landmarks: Optional[int] = None,
    bootstrap: bool = True,
) -> tuple[BoundProvider, int]:
    """Create a provider, attach it to the resolver, run any bootstrap.

    Returns ``(provider, bootstrap_calls)`` where ``bootstrap_calls`` is the
    number of oracle calls spent before the host algorithm starts.
    """
    provider = make_provider(name, resolver.graph, max_distance, num_landmarks)
    resolver.bounder = provider
    bootstrap_calls = 0
    if bootstrap and name.lower() in LANDMARK_PROVIDERS:
        bootstrap_calls = provider.bootstrap(resolver)
    return provider, bootstrap_calls
