"""Potential kernel a(x), point-absorption Green function, and constants.

build_potential_table gives a(x) and C+- exactly, and hit_before_origin
gives P_y[hit N before 0] exactly, each by one linear solve over the
Wiener-Hopf roots of the law.  Two independent routes to a(x) check the
table: verify compares it with a_fourier, the tests both with
a_partial_sums.

* a_fourier: a(x) = (1/2pi) Int_{-pi}^{pi} Re[(1 - e^{ixl})/(1 - phi(l))] dl.
  The integrand is real-analytic and 2pi-periodic (the l^4 zeros of its
  numerator and of |1 - phi|^2 cancel), so the mean over M equispaced
  midpoint nodes, the circle rule, converges geometrically in M.  M
  doubles until two means agree; the gap between them is the rule's
  computed error, and a rule that has not converged by RULE_MAX_NODES
  raises QuadratureNotConverged.  C* is the same rule applied to
  sigma2 [(1 - Re phi)/|1 - phi|^2 - 1/(sigma2 (1 - cos l))].

* a_partial_sums: sum_{k<=K} [p^k(0) - p^k(-x)] from the exact DP, with
  the k > K tail of the period-aggregated increments, in powers k^{-3/2},
  k^{-2}, ... (their asymptotic expansion), fitted to their sums over
  groups of steps and summed with Hurwitz zeta functions.  For a law of period d the walk at step k lives
  on k*zmin + dZ, so the DP runs on the law of (Y - zmin)/d and skips only
  sites of exact zero weight.  The free stream advances dp.BLOCK_STEPS
  steps at a time by one convolution with p^{*L} (dp._steps), which
  also yields the L steps' [-X, X] slices, summed, by one matrix
  product from the block's start.  The edges below dp.CUT are cut once a
  block, and a step only averages weights, so p^k at every site lies
  within the mass cut by the start of its block of the uncut DP, and the
  bound adds twice the sum of that mass over k.
  The summed slices are added in step order into groups of
  G = lcm(dp.BLOCK_STEPS, d) steps, and the tail is fitted to the group
  sums.  The bound also carries the rounding of the sums and of the
  groups the tail fit reads, from gamma_n (see _partial_sum_table).  One
  QR factorisation of the design gives both tail fits; the fit needs at
  least one group per exponent.  time_sums, the one routine that sums a
  DP stream over time, also gives the report's Green partial sums, from
  the point and half-line streams in blocks, whose strip plans carry the
  strip's summed rows (dp._plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from mpmath import mp

from . import dp
from .errors import (ConstraintViolation, InconsistentEstimates,
                     OutOfWindow, QuadratureNotConverged, SingularSystem)
from .laws import StepLaw, moments, phi_parts, wiener_hopf_roots

# the circle rule's node count M doubles from RULE_MIN_NODES until two
# successive means agree to RULE_TOL * max(1, |mean|)
RULE_MIN_NODES = 64
RULE_MAX_NODES = 2 ** 16
RULE_TOL = 1e-13
QUAD_GATE = 1e-10     # check tolerance of the routes that use a_fourier


@lru_cache(maxsize=8)
def _circle_nodes(law: StepLaw, M: int):
    """The M-point midpoint rule on the circle, l_j = pi(2j + 1 - M)/M,
    reduced to its nodes in (0, pi), as every integrand here is even; with
    A = (1 - Re phi)/|1 - phi|^2 and B = Im phi/|1 - phi|^2 there."""
    l = math.pi * np.arange(1, M, 2) / M
    c, s = phi_parts(law, l)
    d2 = c * c + s * s
    return l, c / d2, s / d2


def _circle_rule(law: StepLaw, f, what: str, M: int = RULE_MIN_NODES):
    """Mean of f(l, A, B) over the circle rule, M doubling until two means
    agree to RULE_TOL; past RULE_MAX_NODES, QuadratureNotConverged."""
    prev = gap = math.inf
    while M <= RULE_MAX_NODES:
        mean = float(np.mean(f(*_circle_nodes(law, M))))
        gap = abs(mean - prev)
        if gap <= RULE_TOL * max(1.0, abs(mean)):
            return mean
        prev, M = mean, 2 * M
    raise QuadratureNotConverged(
        f"{what}: circle rule not converged at {RULE_MAX_NODES} nodes "
        f"(last two means differ by {gap:.2g})")


def a_fourier(law: StepLaw, x: int) -> float:
    """Potential kernel a(x) by the circle rule: the mean of
    Re[(1 - e^{ixl})/(1 - phi)] = (1 - cos xl) A + sin(xl) B."""
    if x == 0:
        return 0.0
    M = RULE_MIN_NODES
    while M < 2 * abs(x):      # coarser nodes alias cos(xl)
        M *= 2
    return _circle_rule(
        law, lambda l, A, B: 2.0 * np.sin(0.5 * x * l) ** 2 * A
        + np.sin(x * l) * B, f"a({x})", M)


# ---------------------------------------------------------------------------
# Free kernel by a tilted Fourier rule.

U = 2.0 ** -53      # unit roundoff
# relative error of numpy's float64 exp, log, log1p, sin, cos and arctan2:
# NumPy documents at most 4 ulp for its vectorised transcendentals, and an
# ulp of v is at most 2u|v|
FN_ERR = 8 * U
TILT_STEPS = 100    # most Newton steps of the tilt
NODE_BLOCK = 2 ** 15    # entries of one block of the rule's node-tap sums


def _tilt(logq: np.ndarray, j: np.ndarray, mu: float):
    """(theta, m, q): E_theta[J] near mu, and the tilted law
    q = exp(logq + theta j - m)/W, m = max(logq + theta j), W the sum.
    Newton steps on K'(theta) = mu from theta = 0; a step that leaves the
    bracket the steps have built is a bisection of it.  K' increases with
    theta, so the bracket holds the root."""
    theta, lo, hi = 0.0, -math.inf, math.inf
    for _ in range(TILT_STEPS):
        a = logq + theta * j
        m = float(a.max())
        w = np.exp(a - m)
        W = float(w.sum())
        q = w / W
        mean = float(q @ j)
        gap = mu - mean
        if abs(gap) <= 2.0 ** -40 * j[-1]:
            break
        lo, hi = (theta, hi) if gap > 0 else (lo, theta)
        var = float(q @ (j - mean) ** 2)
        new = theta + gap / var if var > 0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if math.isfinite(lo + hi) \
                else theta + math.copysign(1.0 + abs(theta), gap)
        theta = new
    return theta, m, q


def p_fourier(law: StepLaw, n: int, z: int) -> tuple[float, float]:
    """(p^n(z), bound): the free n-step kernel from 0 at z by a tilted
    Fourier rule, with no DP, and a bound on its gap to the exact value.

    The rule works on the compressed law J = (Y - zmin)/d of taps q_j,
    j < t, as dp does: p^n(z) = P(T_n = k), T_n the sum of n copies of J
    and k = (z - n zmin)/d.  Off the coset, or with k outside [0, n(t-1)],
    it is 0.0; at k = 0 and k = n(t-1) it is q_0^n and q_(t-1)^n, within
    gamma_(n+1) of them.  Elsewhere the exponential tilt q_theta(j) =
    q_j e^(theta j)/M(theta), theta chosen by _tilt so that E_theta[J] is
    near mu = k/n (the saddle point; Daniels, Ann. Math. Statist. 25,
    1954), gives p^n(z) = M(theta)^n e^(-theta k) P_theta(T_n = k), and

        P_theta(T_n = k) + alias = (1/N) sum_{m<N} psi(l_m)^n,

    psi(l) = E_theta[e^(il(J - mu))] and l_m = 2 pi m / N, as the rule sums
    P_theta(T_n = k + iN) over all i.  psi(-l) is the conjugate of psi(l),
    so the sum is one of real parts over m = 0..N/2.  Under the tilt k is
    the mean, so by Hoeffding's inequality the alias is at most
    2 exp(-2 s^2/(n (t-1)^2)), s = N - |k - n E_theta[J]|, and 0 once N
    exceeds both k and n(t-1) - k.  N is the smallest power of two for
    which that bound is below u times the local-CLT estimate
    1/sqrt(2 pi n var_theta) of P_theta(T_n = k), or for which it is 0.
    Each psi is summed tap by tap as 1 - c + is, c = sum q 2 sin^2(x/2)
    and s = sum q sin x, x = l(j - mu), so |psi| near 1 keeps its relative
    accuracy; psi^n = exp(n log|psi|) e^(i n arg psi), log|psi| by log1p.

    The factor is e^(n Kc - theta z/d), Kc(theta) = log E[e^(theta Y/d)]
    the cumulant of (J - E[J]) = Y/d, summed as log1p(sum q_j expm1(x_j)),
    x_j = theta (j - E[J]), which keeps Kc's relative accuracy as theta
    goes to 0 (x is shifted by c0 where e^x could overflow).

    bound is the alias bound plus a rounding bound.  Rounding: arithmetic
    rounds within u = 2^-53, and the functions within FN_ERR.
      - The tilted taps.  Let the computed taps q~ sum to S, q^ = q~/S,
        and q* the exact tilted law.  Each q~_j is C q*_j (1 + e_j), C
        common to all j, |e_j| <= delta: the float pmf (u), log (FN_ERR
        |log q_j|), the exponent's sum and shift (u (|theta j| + |a_j| +
        |a_j - m|), a_j = log q_j + theta j), exp (FN_ERR) and the
        division (u).  q^ and q* both sum to 1, so q^_j/q*_j lies within
        2 delta/(1 - delta) of 1, and a path of n steps, and so
        P^(T_n = k), moves by a factor within exp(2 n delta/(1 - 3 delta)).
      - The factor.  Kc carries its sum (the pmf, expm1 and the products,
        2u + FN_ERR, and gamma_t, over sum q |expm1 x|), x's rounding
        (4u |theta| (t-1), c0's shift included), log1p and c0 + log1p;
        n Kc, theta z/d, their difference and exp add theirs.
      - The rule.  At node m, |psi^ - psi| <= eps_m = 1.01 (g c + l_m (g
        A + 20 u (t-1))), A = sum q |j - mu| (as |sin x| <= l |j - mu|),
        g = 2 gamma_(t+1) + 2 FN_ERR + 4u (the sums, the products, sin
        and the division by S) and 10 u (t-1) l_m the error of x (l_m, mu
        and j - mu rounded).  So |psi^n - psi^^n| <= n eps_m (r +
        eps_m)^(n-1), r = |psi^|, and evaluating exp(n log|psi^|) cos(n
        arg psi^) adds r^n expm1(E_m), E_m the error of the two
        exponents: log1p's argument, within 3u (c |2 - c| + s^2), over
        r^2, log1p and arg (FN_ERR), arg's 1 - c (u / r), times n, then
        exp and cos.  Where E_m >= 1 or r < eps_m the term is within
        3 (r + eps_m)^n.  The weighted terms are summed by math.fsum,
        within u of the sum.
    """
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)
    k, off = divmod(z - n * zmin, d)
    taps = pmf[::d]
    span = len(taps) - 1                    # t - 1
    top = n * span
    if off or not 0 <= k <= top:
        return 0.0, 0.0
    if k == 0 or k == top:
        v = float(taps[0 if k == 0 else -1]) ** n
        return v, v * _gamma(n + 1)

    idx = np.flatnonzero(taps)
    j, qj = idx.astype(float), taps[idx]
    logq = np.log(qj)
    mu = k / n
    theta, m, q = _tilt(logq, j, mu)
    mean = float(q @ j)
    var = float(q @ (j - mean) ** 2)
    shift = abs(k - n * mean) + n * span * _gamma(2 * len(j) + 2)

    # nodes: Hoeffding's alias bound below u times P_theta(T_n = k)
    p_est = 1.0 / math.sqrt(max(1.0, 2.0 * math.pi * n * var))
    need = span * math.sqrt(0.5 * n * math.log(2.0 / (U * p_est))) + shift
    clear = max(k, top - k) + 1             # N >= clear: no alias at all
    N = 2
    while N < min(need, clear):
        N *= 2

    lam = (2.0 * math.pi / N) * np.arange(N // 2 + 1)
    c, s = np.empty((2, len(lam)))
    half = 0.5 * (j - mu)
    rows = max(1, NODE_BLOCK // len(j))     # nodes per block of the sums
    for i in range(0, len(lam), rows):
        y = np.multiply.outer(lam[i:i + rows], half)     # x/2
        c[i:i + rows] = np.sin(y) ** 2 @ (2.0 * q)
        s[i:i + rows] = np.sin(y + y) @ q
    with np.errstate(divide="ignore"):
        lr = 0.5 * np.log1p(np.maximum(c * (c - 2.0) + s * s, -1.0))
    arg = np.arctan2(s, 1.0 - c)
    terms = np.exp(n * lr) * np.cos(n * arg)
    weight = np.full(len(lam), 2.0)
    weight[[0, -1]] = 1.0                   # m = 0 and m = N/2 appear once
    D = math.fsum(weight * terms) / N

    # rounding of the rule
    t = len(j)
    g = 2.0 * _gamma(t + 1) + 2.0 * FN_ERR + 4.0 * U
    eps = 1.01 * (g * c + lam * (g * float(q @ np.abs(j - mu))
                                 + 20.0 * U * span))
    r = np.exp(lr)
    rt = np.maximum(r, eps)
    E = n * (1.5 * 1.01 * U * (c * np.abs(2.0 - c) + s * s) / rt ** 2
             + (FN_ERR + U) * (np.abs(lr) + np.abs(arg)) + U / rt) \
        + 2.0 * FN_ERR
    with np.errstate(divide="ignore"):
        grown = np.exp(n * np.logaddexp(lr, np.log(eps)))   # (r + eps)^n
    ok = (E < 1.0) & (r >= eps)
    err = np.where(ok, grown * n * eps / np.maximum(r + eps, 1e-300)
                   + np.exp(n * lr) * np.expm1(np.minimum(E, 1.0)),
                   3.0 * grown)
    rule_err = float(weight @ err) / N + U * abs(D)

    # the factor e^(n Kc - theta z/d); x = theta (j - E[J]), E[J] = -zmin/d
    x = theta * (j + zmin / d)
    c0 = max(0.0, float(x.max()) - 600.0)
    e = np.expm1(x - c0)
    sm = float(qj @ e)
    Kc = c0 + math.log1p(sm)
    expo = n * Kc - theta * (z / d)
    F = math.exp(expo)

    # rounding of the tilted taps and of the factor
    a = logq + theta * j
    delta = 1.01 * float((2.0 * U + FN_ERR + FN_ERR * np.abs(logq) + U * (
        np.abs(theta * j) + np.abs(a) + np.abs(a - m))).max())
    dKc = (2.0 * U + FN_ERR + _gamma(t)) * float(qj @ np.abs(e)) / (1.0 + sm) \
        + 4.04 * U * abs(theta) * span + 3.0 * U * c0 \
        + FN_ERR * abs(Kc - c0) + U * abs(Kc)
    rel = math.expm1(2.0 * n * delta / (1.0 - 3.0 * delta) + n * dKc + U * (
        abs(n * Kc) + 2.0 * abs(theta * z / d) + abs(expo)) + FN_ERR)

    alias = 0.0
    if N < clear:
        alias = 2.0 * math.exp(-2.0 * (N - shift) ** 2 / (n * span * span))
    # p^n(z) >= 0, so clamping D at 0 only narrows the gap
    bound = F * ((1.0 + rel) * (alias + rule_err) + rel * abs(D))
    return F * max(D, 0.0), bound


# ---------------------------------------------------------------------------
# Partial-sum route.

PS_EXPONENTS = np.arange(1.5, 6.51, 0.5)


def time_sums(law: StepLaw, start: int, mode: int, X: int, K: int):
    """(acc, blocks, cut, mass, origin) of the DP stream of mode from
    start, summed over steps k <= K, K rounded down to a multiple of the
    period d.

    acc[x + X] = sum_{k<=K} [w_k(0) - w_k(-x)], |x| <= X, w_k the weights
    after step k and w_0 the start; in point and half-line mode site 0
    holds no mass, so acc at -y is minus sum_{k<=K} q^k(start, y).
    blocks[g] sums the terms of the steps of group g, gG+1 .. (g+1)G, and
    origin[g] sums w_k(0) over them, G = lcm(dp.BLOCK_STEPS, d); the last
    group ends at K.  cut is the sum over k <= K of c_k, a bound on how
    far w_k lies from the uncut DP's.  mass is the weight left after step
    K.  The sites the coset stream skips carry exact zeros, which change
    no sum.  A window that empties ends the stream; each later step is
    within its last cut of 0.

    dp._steps, given X, yields one row per advance of the stream, the
    weights of its r steps summed on [-X, X].  A stream cuts only at the
    ends of its advances, so the row lies within (r - 1) times the cut
    before it plus its own.  The rows are added in step order to their
    group's: every advance but the last starts at a multiple of the
    stream's block length L, which divides dp.BLOCK_STEPS and so G, and
    the last, of the K mod L steps left, ends at K; so each lies within
    one group.  Each group's terms w_k(0) - w_k(-x) are then taken once,
    and acc adds them to the start's in step order."""
    zmin, pmf = law.pmf_array()
    d = dp.period(pmf)                      # the stream's stride
    K = K // d * d
    G = math.lcm(dp.BLOCK_STEPS, d)

    rows = np.zeros((-(-K // G), 2 * X + 1))   # row g: w_k summed over g
    k = k0 = 0
    cut = cut_sum = 0.0
    cur = np.ones(1)
    for k, _, cur, _, row_cut, row in dp._steps(start, np.ones(1), zmin, pmf,
                                                K, mode, 1.0, X):
        cut_sum += (k - k0 - 1) * cut + row_cut
        cut, k0 = row_cut, k
        rows[(k - 1) // G] += row
    origin = rows[:, X]
    blocks = origin[:, None] - rows[:, ::-1]
    first = np.full((1, 2 * X + 1), float(start == 0))   # the k = 0 term
    if abs(start) <= X:
        first[0, X - start] -= 1.0
    # an axis-0 sum adds the rows in order
    acc = np.concatenate([first, blocks]).sum(axis=0)
    return acc, blocks, cut_sum + (K - k) * cut, float(cur.sum()), origin


def _gamma(n):
    """gamma_n = n u / (1 - n u), u = 2^-53 the unit roundoff."""
    nu = n * U
    return nu / (1.0 - nu)


def _rounding_gamma(law: StepLaw, k):
    """gamma_(3 n_k), n_k = (2t+1)k + ceil(k/L) + 3Lt + L + 1: the
    relative rounding of the free block stream's time sums through step k
    (see _partial_sum_table), t the compressed tap count and
    L = dp.BLOCK_STEPS."""
    _, pmf = law.pmf_array()
    t = len(pmf[::dp.period(pmf)])
    L = dp.BLOCK_STEPS
    return _gamma(3 * ((2 * t + 1) * k + -(-k // L) + 3 * L * t + L + 1))


@lru_cache(maxsize=None)
def _partial_sum_table(law: StepLaw, X: int, K: int):
    """(acc, tail, bound) for all |x| <= X: acc is time_sums' of the free
    stream from 0 through K rounded down to a multiple of
    G = lcm(dp.BLOCK_STEPS, d), and the tail beyond it is fitted to its
    group sums.  bound is the fit's bound, plus twice the summed cut mass,
    plus the rounding of acc and the rounding of the groups that the tail
    carries.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3).  With u = 2^-53 and gamma_n = n u / (1 - n u): a sum of n
    nonnegative products is computed, in any order, within relative
    gamma_n of its value; gamma_a + gamma_b + gamma_a gamma_b <=
    gamma_(a+b); and n terms added in turn are within gamma_(n-1) times
    the sum of their magnitudes.  Let t be the compressed tap count and
    L = dp.BLOCK_STEPS.  dp._steps yields one row per advance, the sum
    R_k of w_j over the advance's r <= L steps, k = bL + r its last.
    Every entry of R_k lies within relative gamma_(n) of that of the
    exact law's, n = k + 2Ltb + L(t+1) + 2Lt <= (2t+1)k + 3Lt + L:
      - the rounded pmf moves each path's weight, and so p^j, by gamma_k;
      - the taps of p^{*j}, j <= L, are j-1 convolutions of at most t
        products: gamma_((L-1)t);
      - an advance sums at most L(t-1)+1 products with the taps of p^{*L}:
        gamma_(2Lt) a block, b blocks before step k;
      - the summed taps of a column phase add at most L taps of p^{*j}:
        gamma_(L(t+1));
      - a row sums at most 2Lt products with them.
    A group adds its A advances' nonnegative rows in turn, its term
    w(0) - w(-x) rounds once, and acc adds the N groups' terms and the
    start's: A - 1 + 1 + N more roundings, at most the ceil(k/L) advances
    through step k, k the last group's last step.  So a time sum through
    step k lies within gamma_(n_k) S of the exact one, n_k = (2t+1)k +
    ceil(k/L) + 3Lt + L + 1, S the sum of w_j(0) + w_j(-x) over its steps.
    For acc, S <= 2 sum_j w_j(0) + 1 - acc(x), read from time_sums' origin
    and acc, and for group g, with last step k = (g+1)G, S = 2 origin[g] -
    blocks[g]; as these S are computed, within relative gamma_(2 n_k) of
    the exact ones, gamma_(3 n_k) S bounds each sum's error.  The tail is
    linear in the groups, tail = sum_g l_g blocks[g], so it carries
    sum_g |l_g| times their bounds.  The fit's design is ill-conditioned
    (sum_g |l_g| is about 3e6 at K = 2^16), so that term is the bound's
    largest.
    """
    d = dp.period(law.pmf_array()[1])
    G = math.lcm(dp.BLOCK_STEPS, d)
    acc, blocks, cut, _, origin = time_sums(law, 0, dp.FREE, X, K // G * G)
    tail, bound, weights = _fit_tail(blocks, G, d)
    spread = np.abs(weights) * _rounding_gamma(
        law, G * np.arange(1, len(blocks) + 1))
    rounding = _rounding_gamma(law, G * len(blocks)) \
        * (2.0 * origin.sum() + 1.0 - acc) \
        + 2.0 * (spread @ origin) - spread @ blocks
    return acc, tail, bound + 2.0 * cut + rounding


def _fit_tail(blocks: np.ndarray, G: int, d: int):
    """Fit the sums of the N = len(blocks) groups of G steps to
    sum_e c_e m^{-e} summed over each group's d-step units m, and return
    (tail, bound, weights).  The fit reads the groups g0 < g <= N,
    g0 = N // 16, 1-based; the bound compares with the fit on all but the
    last two exponents, and tail = weights @ blocks, the fit being linear
    in the groups (weights is 0 before the window).  One QR factorisation
    of the scaled design serves both fits, as the fit on the first j
    exponents uses the first j columns of Q and R."""
    N = len(blocks)
    g0 = N // 16
    E = len(PS_EXPONENTS)
    if N - g0 < E:              # N = E groups fit, as g0 = 0 below 16
        raise ConstraintViolation(
            f"K rounded down to a multiple of G = {G} is {N * G}: {N - g0} "
            f"groups of G steps to fit; the tail fit needs at least {E}, so "
            f"K >= {E * G}")
    U = G // d                  # d-step units per group
    M = N * U
    t = np.arange(g0 * U + 1, M + 1) / M
    design = np.stack([(t ** -e).reshape(-1, U).sum(axis=1)
                       for e in PS_EXPONENTS], axis=1)
    norms = np.linalg.norm(design, axis=0)
    q, r = np.linalg.qr(design / norms)
    qtb = q.T @ blocks[g0:]
    # tail over m > M of c_e m^{-e} = c_e M^e zeta(e, M+1), Hurwitz zeta
    with mp.workdps(25):
        scale = np.array([M ** e * float(mp.zeta(e, M + 1))
                          for e in PS_EXPONENTS])

    def solve(j: int):
        coef = np.linalg.solve(r[:j, :j], qtb[:j]) / norms[:j, None]
        return scale[:j] @ coef, coef

    tail, coef = solve(E)
    tail_r, _ = solve(E - 2)
    bound = np.abs(tail - tail_r) \
        + np.abs(design @ coef - blocks[g0:]).sum(axis=0)
    weights = np.zeros(N)
    weights[g0:] = q @ np.linalg.solve(r.T, scale / norms)
    return tail, bound, weights


def a_partial_sums(law: StepLaw, x: int,
                   K: int = 2 ** 16) -> tuple[float, float]:
    """(extrapolated partial-sum value of a(x), remainder bound), from the
    table on [-X, X], X = max(55, |x|).  The table sums the first K steps
    rounded down to a multiple of G = lcm(dp.BLOCK_STEPS, d), d the
    period, and fits the tail to sums over groups of G steps, so K needs
    at least 11 G (ConstraintViolation)."""
    if x == 0:
        return 0.0, 0.0
    X = max(55, abs(x))
    acc, tail, bound = _partial_sum_table(law, X, K)
    i = x + X
    return float(acc[i] + tail[i]), float(bound[i])


# ---------------------------------------------------------------------------
# Tables, Green function, constants.

@dataclass
class PotentialTable:
    X: int
    a_values: np.ndarray       # index x + X
    c_plus: float
    c_minus: float
    method: str
    error_estimate: float

    def a(self, x: int) -> float:
        i = x + self.X
        if not 0 <= i < len(self.a_values):
            raise OutOfWindow(f"x={x} outside [−{self.X}, {self.X}]")
        return float(self.a_values[i])

    def a_star(self, x: int) -> float:
        return self.a(x) + (1.0 if x == 0 else 0.0)


def _root_columns(law: StepLaw, lo: int, hi: int):
    """(right, left) root columns at sites x: r^(x-lo) for the roots inside
    the unit disc, used on x >= lo, and r^(x-hi) for those outside, used on
    x <= hi; anchored where largest, they keep the solves well conditioned."""
    roots = [complex(r) for r in wiener_hopf_roots(law)]
    inner = np.array([r for r in roots if abs(r) < 1])
    outer = np.array([r for r in roots if abs(r) > 1])

    def right(x):
        return inner[None, :] ** (x[:, None] - lo)

    def left(x):
        return outer[None, :] ** (x[:, None] - hi)

    return right, left


def build_potential_table(law: StepLaw, X: int = 80) -> PotentialTable:
    """a(x) on [-X, X] and C+- from one linear solve over the roots of
    laws.wiener_hopf_roots.

    With a = -zmin, b = zmax, a solves sum_z p(z) a(x+z) - a(x) = 1{x=0}
    with a(0) = 0 and sigma2 a(x) - |x| bounded, so

        sigma2 a(x) =  x + C+ + sum_{|r|<1} alpha_r r^x   for x >= 1-a,
        sigma2 a(x) = -x + C- + sum_{|r|>1} beta_r r^x    for x <= b-1.

    The two forms agree on [1-a, b-1] and vanish at 0: a + b equations in
    C+, C-, the a-1 alphas and the b-1 betas, with the root columns of
    _root_columns.  The source equation at 0 is not imposed; its residual,
    with that of the solve, is the table's error estimate.
    """
    a, b = -law.zmin, law.zmax
    sigma2 = float(moments(law).sigma2)
    right, left = _root_columns(law, 1 - a, b - 1)

    # unknowns C+, C-, alphas, betas; rows: the forms agree at each y of
    # [1-a, b-1], then the right form vanishes at 0
    ys = np.arange(1 - a, b)
    one = np.ones((len(ys), 1))
    agree = np.hstack([one, -one, right(ys), -left(ys)])
    at_zero = np.hstack([[1.0, 0.0], right(np.zeros(1, int))[0],
                         np.zeros(b - 1)])
    A = np.vstack([agree, at_zero])
    rhs = np.append(-2.0 * ys, 0.0)
    try:
        coef = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"{law.name}: potential root solve: {e}") from e
    c_plus, c_minus = coef[0].real, coef[1].real
    alpha, beta = coef[2:a + 1], coef[a + 1:]

    def a_of(x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x))
        pos, neg = x > 0, x < 0
        out[pos] = x[pos] + c_plus + (right(x[pos]) @ alpha).real
        out[neg] = -x[neg] + c_minus + (left(x[neg]) @ beta).real
        return out / sigma2

    zs, ps = law.pmf_array()
    source = ps @ a_of(np.arange(zs, zs + len(ps))) - 1.0
    err = np.abs(A @ coef - rhs).max() / sigma2 + abs(source)
    return PotentialTable(X=X, a_values=a_of(np.arange(-X, X + 1)),
                          c_plus=float(c_plus), c_minus=float(c_minus),
                          method="Wiener-Hopf root solve",
                          error_estimate=float(err))


def hit_before_origin(law: StepLaw, N: int) -> np.ndarray:
    """h(y) = P_y[hit N before 0] for y = 0..N, exact, from one linear
    solve over the roots of laws.wiener_hopf_roots.  h is bounded and
    harmonic off {0, N}; with a = -zmin, b = zmax,

        h(y) = c  + sum_{|r|<1} alpha_r r^(y-(N+1-a))   for y >= N+1-a,
        h(y) = c' + sum_{|r|>1} beta_r r^(y-(b-1))      for y <= b-1,

    and h on [b, N-a] is free.  h(0) = 0, h(N) = 1, harmonicity at 1..N-1
    and agreement of the forms where they overlap ([N+1-a, b-1]) make a
    square system in N+1 unknowns, or a+b when the forms overlap."""
    if N < 1:
        raise ConstraintViolation("need N >= 1")
    a, b = -law.zmin, law.zmax
    lo = N + 1 - a
    right, left = _root_columns(law, lo, b - 1)
    free = np.arange(b, lo)
    n = a + b + len(free)

    # h at 1-a .. N-1+b as rows over the unknowns (c, alphas, c', betas,
    # free h): the left form to b-1, free h on [b, N-a], then the right
    ys = np.arange(1 - a, N + b)
    r, l = ys >= lo, ys <= b - 1
    R, L = np.zeros((2, len(ys), n), complex)
    R[r, 0], R[r, 1:a] = 1.0, right(ys[r])
    L[l, a], L[l, a + 1:a + b] = 1.0, left(ys[l])
    H = np.where(l[:, None], L, R)
    H[free - (1 - a), a + b + np.arange(len(free))] = 1.0

    # row y + a - 1 of H is site y; sum_z p(z) h(y+z) - h(y) at 1..N-1
    _, pmf = law.pmf_array()
    harm = sum(p * H[j:j + N - 1] for j, p in enumerate(pmf)) \
        - H[a:a + N - 1]
    A = np.vstack([harm, H[[a - 1, N + a - 1]], (R - L)[r & l]])
    try:
        coef = np.linalg.solve(A, np.eye(n)[N])   # 1 in the row h(N) = 1
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"{law.name}: hit-{N} root solve: {e}") from e
    return (H[a - 1:N + a] @ coef).real


def harmonicity_residuals(law: StepLaw, table: PotentialTable) -> np.ndarray:
    """Sum_z p(z) a(x+z) - a(x) - 1(x=0) on the interior of the window."""
    lo = -table.X - law.zmin
    hi = table.X - law.zmax
    out = []
    for x in range(lo, hi + 1):
        s = sum(float(w) * table.a(x + z) for z, w in law.items())
        out.append(s - table.a(x) - (1.0 if x == 0 else 0.0))
    return np.array(out)


def green_point(table: PotentialTable, x: int, y: int) -> float:
    """Expected visits to y before hitting 0, started at x (x, y != 0)."""
    return table.a(x) + table.a(-y) - table.a(x - y)


@dataclass
class WalkConstants:
    lambda3: float
    c_star: float
    c_plus: float
    c_minus: float
    errors: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)


def _c_star_circle(law: StepLaw) -> float:
    """C* = sigma2/pi Int_0^pi [A - 2/(sigma2 l^2)] dl - 2/pi^2 by the circle
    rule.  As Int_0^pi [2/l^2 - 1/(1 - cos l)] dl = [cot(l/2) - 2/l]_0^pi
    = -2/pi exactly, C* is the mean of the periodic sigma2 A - 1/(1 - cos l)."""
    sigma2 = float(moments(law).sigma2)
    return _circle_rule(
        law, lambda l, A, B: sigma2 * A - 0.5 / np.sin(0.5 * l) ** 2, "C*")


CONSTANTS_TOL = 1e-8   # root solve vs the circle-rule C*, and vs lambda3


def constants(law: StepLaw, table: PotentialTable) -> WalkConstants:
    """lambda3 exact; C+- from the table's root solve and C* = (C+ + C-)/2,
    checked against the circle-rule C* and against the exact
    lambda3 = (C- - C+)/2.  Each error is the gap to the independent route
    plus the solve's own error."""
    m = moments(law)
    sigma2 = float(m.sigma2)
    lam3 = float(m.lambda3)
    c_plus, c_minus = table.c_plus, table.c_minus
    c_star = (c_plus + c_minus) / 2.0

    cs = _c_star_circle(law)
    for name, val, ref in [
            ("C* circle rule", cs, c_star),
            ("lambda3 vs (C- - C+)/2", lam3, (c_minus - c_plus) / 2.0)]:
        if not abs(val - ref) <= CONSTANTS_TOL:
            raise InconsistentEstimates(
                f"{name}: {val!r} vs root solve {ref!r}")

    solve = sigma2 * table.error_estimate
    return WalkConstants(
        lambda3=lam3, c_star=c_star, c_plus=c_plus, c_minus=c_minus,
        errors={"c_star": abs(cs - c_star) + solve,
                "c_plus": abs(c_plus - (cs - lam3)) + solve,
                "c_minus": abs(c_minus - (cs + lam3)) + solve},
        provenance={"lambda3": "exact moments",
                    "c_star": "(C+ + C-)/2, checked by the circle rule",
                    "c_plus": table.method,
                    "c_minus": table.method},
    )


def expansion_check(law: StepLaw, table: PotentialTable,
                    consts: WalkConstants) -> np.ndarray:
    """Residual r(x) = sigma2 a(x) - |x| - C* + sign(x) lambda3 over the
    window, as rows (x, r); sign(0) = 0."""
    sigma2 = float(moments(law).sigma2)
    return np.array([(x, sigma2 * table.a(x) - abs(x) - consts.c_star
                      + ((x > 0) - (x < 0)) * consts.lambda3)
                     for x in range(-table.X, table.X + 1)])
