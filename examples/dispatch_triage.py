#!/usr/bin/env python
"""Trouble-locator triage: rank dispositions before the truck rolls.

Section 6 of the paper: when a dispatch is scheduled, the trouble locator
hands the field technician a list of candidate dispositions ordered by
likelihood, so she tests the probable locations first.  This example

1. trains the three locator models on historical dispatches -- the
   experience baseline (prior frequencies), the flat one-vs-rest model,
   and the combined hierarchical model of Eq. 2;
2. prints a technician-style triage card for a real test dispatch,
   showing each model's top candidates against the truth;
3. reports the paper's summary metrics: tests-to-locate-50% and the
   average rank improvement on deep basic ranks (Fig. 10).

Run:  python examples/dispatch_triage.py
"""

import numpy as np

from repro import (
    CombinedLocator,
    DslSimulator,
    ExperienceModel,
    FlatLocator,
    LocatorConfig,
    PopulationConfig,
    SimulationConfig,
    build_locator_dataset,
    rank_improvement_by_bin,
    ranks_of_truth,
    tests_to_locate,
)
from repro.netsim.components import DISPOSITIONS, Location


def triage_card(probs_row: np.ndarray, truth: int, model_name: str) -> None:
    order = np.argsort(-probs_row)
    print(f"  {model_name}:")
    for rank, code in enumerate(order[:5], start=1):
        marker = " <-- actual fault" if code == truth else ""
        d = DISPOSITIONS[code]
        print(f"    {rank}. [{Location(d.location).name}] {d.name}"
              f" (p={probs_row[code]:.3f}){marker}")
    true_rank = int(np.flatnonzero(order == truth)[0]) + 1
    print(f"    ... true disposition found at rank {true_rank}")


def main() -> None:
    print("=== Trouble-locator triage ===")
    print("Simulating a plant with a dense dispatch history ...")
    result = DslSimulator(
        SimulationConfig(
            n_weeks=26,
            population=PopulationConfig(n_lines=3000),
            fault_rate_scale=4.0,
        )
    ).run()

    horizon = 26 * 7
    cut = int(horizon * 0.6)
    train = build_locator_dataset(result, first_day=30, last_day=cut)
    test = build_locator_dataset(result, first_day=cut + 1, last_day=horizon)
    print(f"  {train.n_examples} training dispatches, "
          f"{test.n_examples} evaluation dispatches")

    config = LocatorConfig(n_rounds=50)
    print("Training experience / flat / combined locators ...")
    basic = ExperienceModel(config).fit(train)
    flat = FlatLocator(config).fit(train)
    combined = CombinedLocator(config).fit(train)

    X = test.features.matrix
    probs = {
        "experience (prior only)": basic.predict_proba(X),
        "flat model": flat.predict_proba(X),
        "combined model (Eq. 2)": combined.predict_proba(X),
    }

    # A triage card for one dispatch where the models disagree with the prior.
    basic_ranks = ranks_of_truth(probs["experience (prior only)"], test.disposition)
    interesting = int(np.argmax(basic_ranks))  # deep-ranked under the prior
    truth = int(test.disposition[interesting])
    print(f"\nDispatch for line {test.line_ids[interesting]} "
          f"(ticket day {test.ticket_days[interesting]}):")
    for name, matrix in probs.items():
        triage_card(matrix[interesting], truth, name)

    print("\nFleet-wide rank metrics (Section 6.3):")
    print(f"{'model':>26} {'median tests':>13} {'mean rank':>10}")
    ranks = {}
    for name, matrix in probs.items():
        r = ranks_of_truth(matrix, test.disposition)
        ranks[name] = r
        print(f"{name:>26} {tests_to_locate(r):>13} {r.mean():>10.1f}")

    print("\nAverage rank improvement over the basic ranks, by basic-rank "
          "bin (Fig. 10):")
    rb = ranks["experience (prior only)"]
    for name in ("flat model", "combined model (Eq. 2)"):
        rows = rank_improvement_by_bin(rb, ranks[name], bin_width=5)
        cells = ", ".join(
            f"{int(r['bin_low'])}-{int(r['bin_high'])}: "
            f"{r['mean_rank_change']:+.1f}"
            for r in rows[:6]
        )
        print(f"  {name}: {cells}")

    # Fig-9-style explanation of one combined inference.
    if truth in combined.blend_:
        info = combined.explain(X[interesting], truth, top_k=4)
        names = test.features.names
        print(f"\nFig-9-style breakdown for '{DISPOSITIONS[truth].name}':")
        g1, g2, g0 = info["gammas"]
        print(f"  disposition margin f_Cij = {info['disposition_margin']:+.2f}, "
              f"location margin f_Ci. = {info['location_margin']:+.2f}")
        print(f"  gammas: ({g1:+.2f}, {g2:+.2f}, {g0:+.2f})  ->  "
              f"P_adj = {info['posterior']:.3f}")
        print("  top line-feature contributions to f_Cij:")
        for feat, value in info["disposition_contributions"]:
            print(f"    {names[feat]:<24} {value:+.2f}")


if __name__ == "__main__":
    main()
