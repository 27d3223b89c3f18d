"""Turning census-style aggregates into per-life-year model parameters:
Farr's rate formula, proportional and integer disaggregation, and 3D
iterative proportional fitting of an internal-migration tensor.
"""

import numpy as np

from popsim import (MigrationTensor, apportion_integer, farr_probability, ipf_3d,
                    marginal_residual)

# --- Farr: yearly death counts to a per-life-year probability ---------------
deaths, pop_avg = 100, 10_000
naive = deaths / pop_avg
farr = farr_probability(deaths, pop_avg)
print(f"{deaths} deaths over an average cohort of {pop_avg}:")
print(f"  naive rate        {naive:.6f}")
print(f"  Farr probability  {farr:.6f}   (accounts for the birthday mismatch)")

# --- proportional disaggregation: one numpy expression -----------------------
weights = np.array([3, 1])
shares = 1000 * weights / weights.sum()
print(f"\n1000 people split by weights (3, 1): {shares.tolist()}")

# --- integer apportionment (Huntington-Hill priorities) ----------------------
alloc = apportion_integer(10, [6, 3, 1])
print(f"10 whole units over weights (6, 3, 1): {alloc}")
alloc = apportion_integer(2, [5, 4, 3])
print(f"2 units over weights (5, 4, 3): {alloc}  (first units by weight)")

# --- 3D IPF -------------------------------------------------------------------
# a hidden migration census defines three observable marginals; IPF recovers
# a tensor consistent with all three from a flat start
rng = np.random.default_rng(7)
regions = ("AT-1", "AT-2", "AT-3", "AT-4")
ages = tuple(range(5))
hidden = MigrationTensor(regions, ages, rng.random((4, 4, 5)) + 0.1)
marginals = hidden.marginals()

fitted = ipf_3d(MigrationTensor(regions, ages), marginals, tol=1e-9, max_iter=1000)
print(f"\nIPF on a 4x4x5 instance: residual "
      f"{marginal_residual(fitted.values, marginals):.2e}")
print("fitted origin-destination flows (summed over age):")
print(np.round(fitted.values.sum(axis=2), 2))
