"""The CFD perturbation trade-off and the Cor-CFD estimator.

A central difference quotient at perturbation c has bias mu3*c^2/6 and, per
batch of n pairs, variance sigma^2/(2*n*c^2): small c is noisy, large c is
biased, and the sweet spot c* = (9 sigma^2 / (n mu3^2))^(1/6) depends on two
constants nobody knows in practice. Cor-CFD spends the batch across several
pilot perturbations, estimates both constants by regression on the pilot
means, and recycles every stored quotient toward the estimated optimum.

Everything below probes mu(x) = x^4 at x = 1, where mu' = 4 and mu3 = 24.
"""

import numpy as np

from fdopt import (CfdConfig, CorCfdConfig, NoisyOracle, cfd_batch, cfd_pair,
                   cor_cfd_coordinate, get_test_function, optimal_c)

quartic = get_test_function("quartic").mean_fn
x = np.array([1.0])

print("== bias grows like c^2 (noiseless quotients) ==")
oracle = NoisyOracle(quartic, 1, 0.0)
for c in (0.4, 0.2, 0.1, 0.05):
    q = cfd_pair(oracle, x, 0, c)
    print(f"  c={c:<5} quotient={q:.6f}  bias={q - 4:.6f}  (4c^2={4 * c * c:.6f})")

print("\n== variance grows like 1/c^2 (sigma=1, n=1000 pairs) ==")
n = 1000
for c in (0.05, 0.15, 0.5):
    estimates = [cfd_batch(NoisyOracle(quartic, 1, 1.0, seed=rep), x, 0,
                           CfdConfig(n, c)) for rep in range(300)]
    mse = np.mean((np.array(estimates) - 4.0) ** 2)
    predicted_var = 1.0 / (2 * n * c * c)
    print(f"  c={c:<5} empirical MSE={mse:.5f}  "
          f"(bias^2={16 * c ** 4:.5f} + var~{predicted_var:.5f})")

c_star = optimal_c(sigma2=1.0, mu3=24.0, n=n)
print(f"\nwith the true constants, the optimal perturbation is c*={c_star:.4f}")

print("\n== Cor-CFD estimates the constants itself and recycles the batch ==")
errs = []
for rep in range(300):
    oracle = NoisyOracle(quartic, 1, 1.0, seed=(1, rep))
    est, c_hat, sigma2_hat, mu3_hat, intercept, _ = cor_cfd_coordinate(
        oracle, x, 0, CorCfdConfig(batch_pairs=n), np.random.default_rng((2, rep)))
    errs.append(est - 4.0)
    if rep == 0:
        print(f"  one run's diagnostics: c_hat={c_hat:.4f} "
              f"sigma2_hat={sigma2_hat:.3f} mu3_hat={mu3_hat:.2f} "
              f"intercept={intercept:.4f}")
print(f"  Cor-CFD MSE over 300 runs: {np.mean(np.square(errs)):.5f}")
print(f"  oracle-constants optimum:  {16 * c_star ** 4 + 1 / (2 * n * c_star ** 2):.5f}")
print("""
The estimator lands at the MSE of the best fixed perturbation without being
told sigma^2 or mu3, and it costs the same 2n evaluations: the pilot samples
are re-used (location/scale adjusted), not thrown away.
""")
