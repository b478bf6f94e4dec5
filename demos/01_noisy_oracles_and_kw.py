"""Noisy oracles and the Kiefer-Wolfowitz loop.

Every optimizer in this package sees an objective only through noisy
evaluations Y(x) = mu(x) + sigma*Z, charged one by one to an evaluation
counter. This script builds an oracle for the quartic mu(x) = x^4 on
[-50, 50], runs KW with the classic gains a_k = 1/k, c_k = 1/k^(1/4), and
shows the boundary-oscillation pathology: from x0 = 30 the first quotient is
so large that the iterate slams into a box bound, and the diminishing step
size needs about 5000 sample pairs before |a_k * g| drops below the box width
and the run can leave the boundaries.
"""

import numpy as np

from fdopt import (BoxDomain, GainSchedule, get_test_function, kw_run,
                   oscillation_settle_index, oscillatory_period)

domain = BoxDomain.interval(-50, 50)
quartic = get_test_function("quartic")

print("== the oracle charges every evaluation ==")
oracle = quartic.make_oracle(noise_sigma=1.0, seed=0)
x = np.array([2.0])
print(f"three draws at x=2 (mu=16): "
      f"{[round(oracle.evaluate(x), 3) for _ in range(3)]}")
print(f"evaluations used: {oracle.eval_counter}")
print(f"noiseless truth (not charged): {quartic.mean_fn(x)}\n")

print("== KW on the quartic, x0=30, a=c=1 ==")
for sigma in (0.1, 1.0, 10.0):
    oracle = quartic.make_oracle(noise_sigma=sigma, seed=42)
    traj = kw_run(oracle, domain, 30.0, GainSchedule(1.0, 1.0),
                  budget_pairs=10_000)
    xs = traj.iterates[:, 0]
    flips = oscillatory_period(xs, -50.0, 50.0)
    settle = oscillation_settle_index(xs, -50.0, 50.0)
    print(f"sigma={sigma:>4}: first iterates {np.round(xs[:5], 1)}, "
          f"boundary flips={flips}, settles after {settle} pairs, "
          f"final x={xs[-1]:+.3f}")

print("""
The first step lands on -50 because the quotient near x=30 is about
4*30^3 = 108000 and a_1 = 1. At the bounds |g| is roughly 4*50^3 = 500000,
so the projected update keeps flipping between -50 and +50 exactly while
a_k*|g| >= 100, i.e. through k = 5000. Only then does the run settle and
start converging, which is why a 100- or 1000-pair budget leaves KW pinned
at a bound no matter the noise level.
""")
