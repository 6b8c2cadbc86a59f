"""
Dimension reduction two ways: seeded Gaussian random projection with a
distortion guarantee, and PCA with the increment-rounding retention rule.
"""

import numpy as np

from distsim import (
    SampleMatrix,
    jl_distortion_report,
    jl_min_dimension,
    jl_project,
    pca_reduce,
)

## How few dimensions can hold n points at distortion eps?
for n, eps in ((566, 0.5), (100, 0.3), (10_000, 0.1)):
    print(f"n = {n:6d}, eps = {eps}: k >= {jl_min_dimension(n, eps)}")

## Project 100 points from dimension 1000 down to the bound
rng = np.random.default_rng(0)
points = rng.standard_normal((100, 1000))
k = jl_min_dimension(100, 0.3)
projected = jl_project(points, k, seed=7)
report = jl_distortion_report(points, projected, 0.3)
print(f"\nprojected 100x1000 -> 100x{k}")
print(f"pairs inside [1-eps, 1+eps]: {report.fraction_within:.1%} of "
      f"{report.pair_count}")
print(f"squared-distance ratios: min {report.min_ratio:.3f}, "
      f"mean {report.mean_ratio:.3f}, max {report.max_ratio:.3f}")

## Overshooting the bound (smaller k) costs accuracy
small = jl_project(points, 40, seed=7)
loose = jl_distortion_report(points, small, 0.3)
print(f"with k=40 instead: only {loose.fraction_within:.1%} inside")

## PCA path: retention decided by rounding cumulative-variance increments
spectrum = np.geomspace(4.0, 1e-6, 12)
basis = np.linalg.qr(rng.standard_normal((12, 12)))[0]
data = SampleMatrix(rng.standard_normal((400, 12)) * np.sqrt(spectrum) @ basis.T)

for digits in (2, 4, 6):
    reduced, kept = pca_reduce(data, significant_digits=digits,
                               return_truncated=True)
    print(f"\nsignificant digits = {digits}: retained {kept} of 12 components")
    print(f"  score variances: {np.round(reduced.values.var(axis=0), 4)}")

## Reconstruction instead of scores: full rank round-trips losslessly
recon, kept = pca_reduce(data, component_count=12, return_truncated=False)
print(f"\nfull-rank reconstruction error: "
      f"{np.max(np.abs(recon.values - data.values)):.2e}")

## Fixed component count caps at what the data offers
_, kept = pca_reduce(data, component_count=50, return_truncated=True)
print(f"asked for 50 components, data offers {kept}")
