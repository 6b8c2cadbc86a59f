"""Independent recomputations of values captured in the traced run.

Each check takes the tracer's captures (see ``tracing.CAPTURED``), draws a
seeded sample, appends to ``problems[op id]`` for every captured value that
disagrees with its oracle, and returns how many values it checked. A
problem makes its op count as failed.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy.stats import multivariate_normal

#: scipy's target absolute error for the box-probability oracle.
SCIPY_ABSEPS = 1e-5
#: scipy's estimate is itself random; allow this many multiples of its target.
SCIPY_SLACK = 5.0


def _sample(items: list, rng: np.random.Generator, count: int) -> list:
    if len(items) <= count:
        return items
    return [items[i] for i in sorted(rng.choice(len(items), size=count, replace=False))]


def bhattacharyya_mvn(mu_p, cov_p, mu_q, cov_q) -> float:
    """``d' S^-1 d / 8 + (ln|S| - (ln|P| + ln|Q|) / 2) / 2`` with ``S = (P+Q)/2``."""
    s = 0.5 * (np.asarray(cov_p) + np.asarray(cov_q))
    d = np.asarray(mu_p) - np.asarray(mu_q)
    logdets = [np.linalg.slogdet(m) for m in (s, cov_p, cov_q)]
    if any(sign <= 0 for sign, _ in logdets):
        raise ValueError("covariance is not positive definite")
    (_, ld_s), (_, ld_p), (_, ld_q) = logdets
    return float(d @ np.linalg.solve(s, d)) / 8.0 + 0.5 * (ld_s - 0.5 * (ld_p + ld_q))


def check_bc_mvn(captures, rng, problems, count: int = 40) -> int:
    sample = _sample(captures.get("gaussian.bc_mvn", []), rng, count)
    for c in sample:
        p, q = c["args"][:2]
        want = bhattacharyya_mvn(p.mu, p.cov, q.mu, q.cov)
        got = c["result"].distance
        if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
            problems[c["op"]].append(f"bc_mvn {got!r} != slogdet/solve {want!r}")
    return len(sample)


def check_box_probabilities(captures, rng, problems, pairs: int = 6) -> int:
    """The three box probabilities of sampled pairs against scipy's cdf."""
    checked = 0
    boxes = defaultdict(list)
    for c in captures.get("quadrature.mvn_rect_prob", []):
        boxes[c["parent"]].append(c)
    for terms in _sample(captures.get("gaussian.truncated_mvn_terms", []), rng, pairs):
        calls = boxes.get(terms["sid"], [])
        if len(calls) != 3:
            problems[terms["op"]].append(f"pair made {len(calls)} box calls, not 3")
            continue
        for c in calls:
            dist, lower, upper = c["args"][:3]
            want = multivariate_normal.cdf(
                np.asarray(upper, dtype=float), mean=dist.mu, cov=dist.cov,
                lower_limit=np.asarray(lower, dtype=float), abseps=SCIPY_ABSEPS,
                releps=0.0, rng=np.random.default_rng(int(rng.integers(2**32))))
            got = c["result"]
            checked += 1
            tol = got.error_estimate + SCIPY_SLACK * SCIPY_ABSEPS
            if not abs(got.value - want) <= tol:
                problems[c["op"]].append(
                    f"box probability {got.value!r} vs scipy {want!r} beyond {tol:.2e}")
    return checked


def discrete_distance(blocks_a, blocks_b) -> float:
    """``-ln prod_j sum_i sqrt(w_a,ij w_b,ij)`` over aligned columns and nodes."""
    if len(blocks_a) != len(blocks_b):
        raise ValueError(f"{len(blocks_a)} vs {len(blocks_b)} columns")
    rho = 1.0
    for a, b in zip(blocks_a, blocks_b):
        wa, wb = np.asarray(a.weights), np.asarray(b.weights)
        if wa.shape != wb.shape:
            raise ValueError("node counts differ")
        rho *= float(np.sum(np.sqrt(wa * wb)))
    rho = min(rho, 1.0)
    return math.inf if rho <= 0.0 else -math.log(rho)


def check_discrete(captures, outputs: dict, rng, problems, count: int = 30) -> int:
    """Recompute sampled pair distances; find every one in its op's matrix.

    The pipeline visits ordered pairs ``(i, j), i != j`` in row-major order
    on one thread, so the k-th capture of an op is matrix entry ``pairs[k]``.
    """
    caps = captures.get("pipeline.discrete_distance", [])
    sample = _sample(caps, rng, count)
    for c in sample:
        try:
            want = discrete_distance(*c["args"][:2])
        except ValueError as e:
            problems[c["op"]].append(f"discrete fits not aligned: {e}")
            continue
        if not abs(c["result"] - want) <= 1e-12 * max(1.0, abs(want)):
            problems[c["op"]].append(f"discrete distance {c['result']!r} != {want!r}")
    by_op = defaultdict(list)
    for c in caps:
        by_op[c["op"]].append(c["result"])
    for op, got in by_op.items():
        matrix = outputs[op].matrices[0]
        g = matrix.shape[0]
        pairs = [(i, j) for i in range(g) for j in range(g) if i != j]
        if len(got) != len(pairs):
            problems[op].append(f"{len(got)} pair distances for {len(pairs)} pairs")
        elif any(matrix[i, j] != d for (i, j), d in zip(pairs, got)):
            problems[op].append("written matrix differs from the computed distances")
    return len(sample)


def normal_mixture_moments(weights, means, sds, count: int) -> np.ndarray:
    """Raw moments ``E[X^n], n < count`` of a normal mixture, in closed form."""
    out = np.zeros(count)
    for w, m, s in zip(weights, means, sds):
        for n in range(count):
            out[n] += w * sum(math.comb(n, k) * m ** (n - k) * s ** k * _double_fact(k - 1)
                              for k in range(0, n + 1, 2))
    return out


def _double_fact(n: int) -> int:
    return 1 if n <= 0 else n * _double_fact(n - 2)


def run_all(captures, outputs: dict, rng, problems) -> dict:
    """Run every oracle; returns how many values each one checked."""
    return {
        "bc_mvn": check_bc_mvn(captures, rng, problems),
        "box_probability": check_box_probabilities(captures, rng, problems),
        "discrete_distance": check_discrete(captures, outputs, rng, problems),
    }
