"""Bound-provider invalidation dispatch for mutation batches.

Each mutable provider patches its own state (``apply_mutations`` on SPLUB
and LAESA); stateless schemes (Tri, the trivial bounder) read
everything from the shared graph and need no maintenance at all.  Providers
holding per-pair state that cannot be patched soundly (AESA's full matrix,
ADM's anchor structures, DFT, TLAESA's tree) are rejected up front — a
dynamic engine must be configured with a provider from
:data:`MUTABLE_PROVIDERS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.exceptions import ConfigurationError

#: ``make_provider`` names whose schemes survive mutation batches soundly.
MUTABLE_PROVIDERS = frozenset({"none", "tri", "splub", "laesa"})

#: Provider ``name`` attributes that are stateless beyond the shared graph.
_STATELESS_NAMES = frozenset({"none", "tri"})


def apply_provider_mutations(
    provider,
    inserted: Iterable[int],
    removed: Iterable[int],
    resolver=None,
) -> Dict[str, int]:
    """Run one provider's incremental maintenance; return its counters.

    Dispatches structurally: a provider exposing ``apply_mutations`` patches
    itself; an intersection fans out to its members and merges counters; a
    stateless scheme is a no-op.  Anything else raises
    :class:`~repro.core.exceptions.ConfigurationError` — silently serving
    stale per-pair state for a recycled id would be unsound.
    """
    inserted = list(inserted)
    removed = list(removed)
    members: Optional[list] = getattr(provider, "providers", None)
    if members is not None:
        merged: Dict[str, int] = {}
        for member in members:
            for key, value in apply_provider_mutations(
                member, inserted, removed, resolver
            ).items():
                merged[key] = merged.get(key, 0) + value
        return merged
    patch = getattr(provider, "apply_mutations", None)
    if patch is not None:
        return patch(inserted, removed, resolver)
    name = str(getattr(provider, "name", "")).lower()
    if name in _STATELESS_NAMES:
        return {}
    raise ConfigurationError(
        f"bound provider {getattr(provider, 'name', type(provider).__name__)!r} "
        "does not support mutation batches; configure the engine with one of "
        f"{sorted(MUTABLE_PROVIDERS)}"
    )
