"""
Two approximation tools: the density of projected log-normal data (a
normal log-normal scale mixture, plus convolution for sums), and discrete
distributions that match a target's first 2N-1 moments exactly.
"""

import math

import numpy as np

from distsim import (
    DiscreteDist,
    NLNComponent,
    bc_coefficient_discrete,
    moment_match,
    nln_density,
    nln_sum_density,
)

## One projected coordinate: U = X * exp(Y), X ~ N(0, 1/k) independent of Y
comp = NLNComponent(k=4, mu_y=0.0, sigma_y=0.8)
print("density of one mixture coordinate (k=4, sigma_Y=0.8):")
for u in (0.0, 0.25, 0.5, 1.0, 2.0):
    print(f"  f({u:4.2f}) = {nln_density(u, comp):.5f}")

## With sigma_Y = 0 the mixture collapses to a plain normal
flat = NLNComponent(k=4, mu_y=0.0, sigma_y=0.0)
print(f"\nsigma_Y = 0 at u=0: {nln_density(0.0, flat):.6f} "
      f"(N(0, 1/4) density: {math.sqrt(4 / (2 * math.pi)):.6f})")

## A Monte Carlo cross-check of the density at one point
rng = np.random.default_rng(1)
n = 2_000_000
draws = (rng.standard_normal(n) / 2.0) * np.exp(0.8 * rng.standard_normal(n))
width = 0.05
hist = np.count_nonzero(np.abs(draws - 0.5) < width / 2) / (n * width)
print(f"simulation vs density at u=0.5: {hist:.5f} vs {nln_density(0.5, comp):.5f}")

## Sums of coordinates: pairwise grid convolution
comps = [NLNComponent(3, 0.0, 0.3), NLNComponent(3, 0.1, 0.5),
         NLNComponent(3, 0.0, 0.0)]
grid = nln_sum_density(comps)
print(f"\nsum of three coordinates: {grid.x.size}-point grid, "
      f"mass = {grid.mass():.6f}")
peak = grid.x[np.argmax(grid.values)]
print(f"mode at {peak:+.4f} (symmetric mixture, expect 0)")
# grid.to_csv("sum_density.csv") writes the two-column dump for plotting

## Moment matching: 3 nodes reproduce the standard normal's first 5 moments
moments = [1.0, 0.0, 1.0, 0.0, 3.0, 0.0]
approx = moment_match(np.array(moments), 3)
print(f"\n3-point match of N(0,1): nodes {np.round(approx.nodes, 6)}, "
      f"weights {np.round(approx.weights, 6)}")
print("moment check:", [f"{approx.moment(j):.4f}" for j in range(6)])
print(f"(the 6th moment is NOT matched: {approx.moment(6):.1f} vs 15 true)")

## Discretize two different SHAPES, then compare the weight vectors.
## (Unlabelled weights align by index, so this sees shape, not location: any
## normal gets the same symmetric weights. An exponential does not. The
## node-labelled laws of as_discrete_dist() would share no outcome here.)
expo = moment_match(np.array([1.0, 1.0, 2.0, 6.0, 24.0, 120.0]), 3)
print(f"\nexponential 3-point fit: nodes {np.round(expo.nodes, 4)}, "
      f"weights {np.round(expo.weights, 4)}")
rho = bc_coefficient_discrete(DiscreteDist(approx.weights), DiscreteDist(expo.weights))
print(f"weight-vector coefficient, normal vs exponential: {rho.coefficient:.4f}")
