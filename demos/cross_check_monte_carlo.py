#!/usr/bin/env python3
"""Check the analytic click model against a brute-force pulse simulation.

Draws a few million pulses at one operating point, counts what an ideal
tagger would see, and compares every tally with the closed-form rates.
The z columns should sit within a few standard errors; anything beyond
that means model and simulation disagree.
"""

import math

from bellcal import (
    ClickKind,
    SimConfig,
    SourceParams,
    expected_rate,
    simulate_tally_and_chsh,
    visibility,
)

ETA = 0.1134
LAMBDA = 0.0849
PULSES = 2_000_000
SEED = 17


def main() -> None:
    params = SourceParams(ETA, LAMBDA)
    cfg = SimConfig(n_pulses=PULSES, seed=SEED)
    print(f"eta = {ETA}, lambda = {LAMBDA}, {PULSES:,} pulses, seed {SEED}\n")

    # one pass over the pulse stream gives the tally and, from the same
    # double clicks, the CHSH measurement
    tally, estimate = simulate_tally_and_chsh(params, 1.0, cfg)
    print(f"{'tally':>12} {'observed':>9} {'expected':>11} {'z':>6}")
    for kind, observed in (
        (ClickKind.SINGLE, tally.singles),
        (ClickKind.DOUBLE, tally.doubles),
        (ClickKind.ENTANGLED, tally.entangled_coincidences),
    ):
        rate = expected_rate(params, kind)
        se = math.sqrt(rate * (1.0 - rate) * PULSES)
        z = (observed - rate * PULSES) / se
        print(f"{kind.value:>12} {observed:>9} {rate * PULSES:>11.1f} {z:>+6.2f}")

    v_model = visibility(params)
    v_emp = tally.entangled_coincidences / tally.doubles
    se_v = math.sqrt(v_emp * (1.0 - v_emp) / tally.doubles)
    print(f"\nvisibility: model {v_model:.4f}, empirical {v_emp:.4f} ({(v_emp - v_model) / se_v:+.2f} se)")

    # each double click picked one of the four CHSH settings and produced
    # correlated or accidental outcomes
    target = 2.0 * math.sqrt(2.0) * v_model
    z = (estimate.bell_value - target) / estimate.std_error
    print(f"CHSH: model {target:.4f}, empirical {estimate.bell_value:.4f} +- {estimate.std_error:.4f} ({z:+.2f} se)")
    print(f"settings sampled {estimate.setting_counts}")


if __name__ == "__main__":
    main()
