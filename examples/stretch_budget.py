"""Approximate mode: trade a declared stretch budget for fewer oracle calls.

Exactness is the framework's default, but some workloads (candidate
generation, visualisation, warm-up passes) tolerate answers within a known
multiplicative factor of the truth.  ``stretch=1.5`` tells the resolver it
may answer any distance with an estimate ``est`` satisfying
``true <= est <= 1.5 * true`` — *provided a bound interval certifies it*:
the resolver only accepts when ``upper / lower <= stretch``, so the budget
is a hard guarantee, not a heuristic.

The certifying intervals come from ``Laesa`` — an ``L × n`` matrix of exact
landmark distances, dense enough here to close the gap on most pairs.
Every accepted answer's realised stretch lands in the
``repro_answer_stretch`` histogram, so the guarantee is auditable live.

Run with:  python examples/stretch_budget.py
"""

from repro.datasets import sf_poi_space
from repro.harness import run_experiment
from repro.obs import MetricsRegistry

N = 300
LANDMARKS = 150
STRETCH = 1.5


def main() -> None:
    space = sf_poi_space(n=N, road=False)

    # --- exact baseline ---------------------------------------------------
    exact = run_experiment(
        space, "knng", provider="laesa", num_landmarks=LANDMARKS,
        algorithm_kwargs={"k": 6},
    )
    print(f"exact:        {exact.algorithm_calls:,} oracle calls")

    # --- same build under a 1.5x stretch budget ---------------------------
    registry = MetricsRegistry()
    approx = run_experiment(
        space, "knng", provider="laesa", num_landmarks=LANDMARKS,
        algorithm_kwargs={"k": 6}, stretch=STRETCH, registry=registry,
    )
    saved = 100.0 * (exact.algorithm_calls - approx.algorithm_calls)
    saved /= exact.algorithm_calls
    print(f"stretch={STRETCH}:  {approx.algorithm_calls:,} oracle calls "
          f"({saved:.1f}% saved)")

    # The histogram proves the budget held: every observed ratio is in the
    # le="1.5" bucket, i.e. no answer exceeded 1.5x its certified lower
    # bound.
    snap = registry.snapshot()
    within = snap[f'repro_answer_stretch_bucket{{le="{STRETCH}"}}']
    total = snap["repro_answer_stretch_count"]
    print(f"audit:        {int(total):,} approximate answers, "
          f"{int(within):,} within budget "
          f"({'OK' if within == total else 'VIOLATION'})")


if __name__ == "__main__":
    main()
