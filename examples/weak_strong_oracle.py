"""Two-tier oracles: a cheap weak estimate bounding an expensive metric.

The setup from arXiv 2310.15863, mapped onto the paper's re-authoring
framework: a *weak* oracle answers instantly with a declared multiplicative
error band (here, crow-flies distance under a road metric whose detours
are at least ``lo``×), the band becomes a bound provider that tightens the
resolver's intervals, and the *strong* oracle — the real routing call —
is only paid for pairs the bounds leave inconclusive.

The answers are byte-identical to a strong-only run; only the bill shrinks.

Run with:  python examples/weak_strong_oracle.py
"""

from repro import SmartResolver, TieredOracle, knn_graph
from repro.datasets import sf_poi_space

N = 96
K = 5


def main() -> None:
    space = sf_poi_space(n=N, road=True)  # road metric, expensive per call

    # --- strong-only baseline ---------------------------------------------
    oracle = space.oracle()
    baseline = knn_graph(SmartResolver(oracle), k=K)
    baseline_calls = oracle.calls
    print(f"strong-only: {baseline_calls:,} routing calls")

    # --- tiered: crow-flies weak oracle under the same metric -------------
    oracle = space.oracle()
    weak = space.weak_oracle()  # straight-line distance, band (detour_lo, inf)
    print(f"weak tier:   {weak.name!r}, band "
          f"[{weak.band.lo_factor:g}·e, {weak.band.hi_factor:g}·e]")

    with TieredOracle(oracle, weak) as tiered:
        resolver = SmartResolver(oracle)
        tiered.attach(resolver, max_distance=space.diameter_bound())
        tiered_graph = knn_graph(resolver, k=K)

        assert tiered_graph == baseline  # exactness is non-negotiable
        stats = resolver.collect_stats()
        print(f"tiered:      {oracle.calls:,} routing calls, "
              f"{tiered.weak_calls:,} weak estimates, "
              f"{stats.weak_band:,} bound tightenings")
        saved = 100.0 * (baseline_calls - oracle.calls) / baseline_calls
        print(f"saved:       {saved:.1f}% of the routing bill, "
              "same kNN graph bit for bit")


if __name__ == "__main__":
    main()
