"""Desk-scale replication benchmark: Cor-CFD-GD against KW in one dimension.

Reproduces the one-dimensional comparison tables at reduced replication
counts: solution-gap RMSE at 100/1000/10000 sample pairs plus boundary
oscillation percentiles, for the quartic and the cosine landscape. Expect a
couple of minutes of runtime.
"""

import numpy as np

from fdopt import BoxDomain, ExperimentConfig, run_replications

REPS = 30

for function, noise_levels in (("quartic", (0.1, 1.0)), ("cos100", (1.0, 10.0))):
    config = ExperimentConfig(
        function=function, dimension=1, noise_levels=noise_levels,
        x0=np.array([30.0]), domain=BoxDomain.interval(-50, 50),
        checkpoints=(100, 1000, 10000), replications=REPS, master_seed=20240817)
    print(f"== {function}, {REPS} replications, x0=30 ==")
    header = f"{'sigma':>6} {'method':>8} | {'rmse@100':>9} {'rmse@1k':>9} {'rmse@10k':>9} | osc (p5, med, p95)"
    print(header)
    print("-" * len(header))
    for method in ("corcfd", "kw"):
        for res in run_replications(config, method):
            r = res.rmse_solution_gap
            osc = res.oscillation_percentiles
            print(f"{res.sigma:>6g} {method:>8} | {r[100]:>9.2f} {r[1000]:>9.2f} "
                  f"{r[10000]:>9.2f} | {osc}")
    print()

print("""
KW spends half its budget glued to the box bounds on the quartic (the
oscillation percentiles sit near 5000 pairs), while the batch-gradient
descent never touches them and its RMSE falls steadily with the budget. On
the cosine landscape neither method oscillates at these noise levels, but
accurate batch gradients plus the backtracking step size still descend an
order of magnitude faster than the diminishing-gain loop.
""")
