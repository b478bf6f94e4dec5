"""High-dimensional showdown: SPSA against Cor-CFD-GD on a 64-d valley.

The objective is a 64-dimensional chain of quartic valley terms with minimum
0 at the all-ones point and a value near 1.2e8 at the standard start. SPSA
pays two evaluations per iteration regardless of dimension, so it iterates
64000 times on this budget; the batch method spends 20 pairs per coordinate
per gradient (2560 pairs each) and gets roughly 30 iterations. This script
traces a single seeded run of each and prints the crossover.
"""

import numpy as np

from fdopt import (ArmijoParams, BoxDomain, CorCfdConfig, GainSchedule,
                   cor_cfd_gd_run, get_test_function, solution_gap, spsa_run)

d = 64
fn = get_test_function("fn213", d)
domain = BoxDomain.interval(-50, 50, d)
x0 = np.tile([3.0, 1.0], d // 2)
budget = 1000 * d  # listed budgets scale with the dimension
sigma = 1.0

print(f"start: mu(x0) = {fn.mean_fn(x0):,.0f}, budget = {budget:,} pairs\n")

oracle = fn.make_oracle(sigma, seed=(7, 1))
corcfd = cor_cfd_gd_run(oracle, domain, x0,
                        CorCfdConfig(batch_pairs=20, pilot_count=10),  # n0, R
                        ArmijoParams(), budget_pairs=budget,
                        rng=np.random.default_rng((7, 2)))
oracle = fn.make_oracle(sigma, seed=(7, 3))
spsa = spsa_run(oracle, domain, x0, GainSchedule(1e-9, 2.0, A=0.1 * budget),
                budget, np.random.default_rng((7, 4)))

print(f"{'pairs':>8} | {'SPSA opt gap':>14} | {'Cor-CFD-GD opt gap':>18}")
print("-" * 48)
for pairs in (500, 1000, 2500, 5000, 10_000, 25_000, 64_000):
    gs = fn.mean_fn(spsa.at_pair_budget(pairs))
    gc = fn.mean_fn(corcfd.at_pair_budget(pairs))
    marker = "<-- crossover region" if gc < gs < 1e7 and pairs <= 5000 else ""
    print(f"{pairs:>8,} | {gs:>14,.0f} | {gc:>18,.0f} {marker}")

print("\nfinal solution gaps: "
      f"SPSA {solution_gap(spsa.iterates[-1], fn.optimum_point):.2f}, "
      f"Cor-CFD-GD {solution_gap(corcfd.at_pair_budget(budget), fn.optimum_point):.2f}")
print(f"Cor-CFD-GD performed {len(corcfd.iterates) - 1} iterations and left "
      f"{budget - corcfd.evaluations[-1] // 2:,} pairs unused (too few to fund "
      f"another gradient); SPSA performed {len(spsa.iterates) - 1:,} iterations.")
print("""
SPSA leads while the batch method is still paying for its first gradient
(about 1300 pairs) but plateaus: with a step size small enough to survive the
steep outer walls it cannot make progress near the flat valley floor. Once
two batch gradients are in, the line-searched descent overtakes it by orders
of magnitude.
""")
