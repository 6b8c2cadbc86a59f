"""
Overlap-based distances between distributions: the coefficient
sum sqrt(p*q), the divergence -ln(rho), and its relatives.
"""

import math

import numpy as np

from distsim import (
    DiscreteDist,
    GaussianMulti,
    GaussianUni,
    bc_coefficient_continuous,
    bc_coefficient_discrete,
    bc_mvn,
    bc_normal_uni,
    chi_squared_discrete,
    hellinger_discrete,
    kl_discrete,
    modified_metric,
    multi_population_coefficient,
    sample_coefficient,
)

## Discrete distributions: two loaded coins
p = DiscreteDist([0.75, 0.25])
q = DiscreteDist([0.25, 0.75])

value = bc_coefficient_discrete(p, q)
print(f"coefficient rho           : {value.coefficient:.6f}")
print(f"divergence -ln(rho)       : {value.distance:.6f}")
print(f"metric sqrt(1 - rho)      : {modified_metric(value.coefficient):.6f}")
print(f"Hellinger (= 2 - 2 rho)   : {hellinger_discrete(p, q):.6f}")
print(f"chi-squared               : {chi_squared_discrete(p, q):.6f}")
print(f"KL (nats, not symmetric)  : {kl_discrete(p, q):.6f} vs {kl_discrete(q, p):.6f}")

## Identical distributions overlap fully; disjoint ones not at all
same = bc_coefficient_discrete(p, p)
disjoint = bc_coefficient_discrete(DiscreteDist([1, 0]), DiscreteDist([0, 1]))
print(f"\nidentical: rho={same.coefficient}, D={same.distance}")
print(f"disjoint : rho={disjoint.coefficient}, D={disjoint.distance}")

## More than two populations at once: the M-way coefficient
trio = [DiscreteDist([0.5, 0.3, 0.2]), DiscreteDist([0.4, 0.4, 0.2]),
        DiscreteDist([0.45, 0.35, 0.2])]
print(f"\nthree-population coefficient: {multi_population_coefficient(trio):.6f}")

## From raw counts (plug-in estimator)
print(f"counts (3,1) vs (1,3)       : {sample_coefficient([3, 1], [1, 3]):.6f}")

## Univariate normals have a closed form ...
closed = bc_normal_uni(GaussianUni(0, 1), GaussianUni(1, 1))
print(f"\nN(0,1) vs N(1,1) closed form: D = {closed.distance:.6f}")

## ... which matches integrating sqrt(f*g) directly
def pdf(mu):
    return lambda x: math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2 * math.pi)

by_quadrature = bc_coefficient_continuous(pdf(0.0), pdf(1.0), (-math.inf, math.inf))
print(f"same through quadrature     : D = {by_quadrature.distance:.6f}")
print(f"(rho = exp(-1/8)            = {math.exp(-0.125):.6f})")

## Multivariate normals: mean term + covariance-shape term
p2 = GaussianMulti([0, 0], np.eye(2))
q2 = GaussianMulti([1, 0], np.eye(2))
print(f"\nk=2 unit mean shift         : D = {bc_mvn(p2, q2).distance:.6f}")
q3 = GaussianMulti([0, 0], 2 * np.eye(2))
print(f"k=2 doubled covariance      : D = {bc_mvn(p2, q3).distance:.6f}")
