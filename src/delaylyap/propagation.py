"""Propagation of the coupled matrix initial-value problem.

Starting from Z1(0) = Z2(0) = X, the pair evolves on [0, tau/2] under

    Z1' =  Z1 A0 + Z2^T A1,
    Z2' = -Z1^T A1 - Z2 A0,

and only the terminal values are needed by the linear operator.  The system
is linear and autonomous with generator G, so the terminal pair is
exp((tau/2) G) applied to (X, X).

The loop runs in split coordinates P = (Z1 + Z2)/2, Q = (Z1 - Z2)/2, in
which

    G(P, Q) = (Q A0 - Q^T A1,  P A0 + P^T A1) = (g-(Q), g+(P)),
    g+-(B) = B A0 +- B^T A1.

Swapping Z1 and Z2 anticommutes with G, so G maps swap-even states (P, 0)
to swap-odd ones (0, Q) and back.  A propagation starts at the even state
(X, 0), and the Taylor terms (hG)^j / j! applied to an even matrix V are
single n x n matrices B_j = (h/j) g(B_{j-1}), B_0 = V, with g = g+ for odd
j and g- for even j, half the work of stepping the pair.  A pass holds
each term as the stacked pair [B^T; B], 2n x n, and a batch of b matrices
as the column blocks of one wide pair, 2n x bn, block k being
[B_k^T; B_k].  Each term is one ``coupled_rhs`` call whatever b: a single
``dgemm`` on SciPy's BLAS (``linalg.gemm``) of an n x 2n coefficient
operand with the previous term's pair, the step scale h/j folded into its
alpha,

    (h/j) g+-(B)^T = (h/j) S+-^T [B^T; B],   S+-^T = [A0^T, +-A1^T],

written straight into the top half of the next pair.  The pair (S-^T,
S+^T) is built, checked and cast to float64 once per propagation, not per
term.  The rest of a term is two in-place steps: the transposed copy of
the top half into the bottom one (one strided copy through the (n, b, n)
views of both halves), and the add of that bottom half, every B_j, to the
running sum of its parity.  A pass allocates its two pair buffers and its
two sums once, and nothing per term.  A single X is the b = 1 case, with
the arithmetic of a 2n x n pair.
One such pass returns the even terms j >= 2, W V = (E_h - I) V, and the
odd terms O_h V, where E_h and O_h are the even and odd parts of the
degree-m Taylor polynomial p(hG).

With h = (tau/2)/s the terminal value is assembled as cosh and sinh of s
steps: P = T_s(E_h) X and Q = O_h U_{s-1}(E_h) X, with T_s and U_{s-1} the
Chebyshev polynomials of the first and second kind, and Z1 = P + Q,
Z2 = P - Q.  The Chebyshev recurrence runs in difference (Reinsch) form,

    U_0 = D_0 = X,  D_k = D_{k-1} + 2 W U_{k-1},  U_k = U_{k-1} + D_k,
    P = (D_s + D_{s-1}) / 2,

one pass on U_{k-1} per step, the last pass also giving Q.  The plain
three-term form U_k = 2 E_h U_{k-1} - U_{k-2} would lose about s^2 eps
when E_h is close to I; the difference form adds only the small
corrections W U.

Accuracy: (E_h + O_h)^s = T_s(E_h) + O_h U_{s-1}(E_h) holds exactly when
E_h^2 - O_h^2 = I.  Here E_h^2 - O_h^2 = p(hG) p(-hG), which is I up to the
same truncation the plan bounds for p(hG) itself, so the recurrence
realizes exp((tau/2) G) to the order of p(hG)^s without being the identical
polynomial.  The plan (m, s) is fixed per problem, before any X is seen --
from the Al-Mohy & Higham (2009, 2011) bounds on ||(tG)^p||^(1/p) of the
balanced generator, each taken from the nonnegative matrix |tG| with no
random estimate, or as (4, steps), degree-4 steps of the order of classic
RK4, or as (0, 1) over zero time -- and the loop stops early only to raise
``exp-overflow`` at the first step whose pair is not finite, so every
propagation that returns is the same polynomial in G and the discretized
operator stays exactly linear.

One set of bounds gives two plans (``plan_propagations``, the one planner):
one for a backward error of 2^-53 (``TAYLOR_THETA``), which runs the
residual checks, refinement and the solution curve, and one for 2^-24
(``KRYLOV_THETA``), which runs the Krylov operator applies, as in
GMRES-based iterative refinement (Carson & Higham 2018).  Each is fixed per
problem, so each operator is exactly linear on its own; (4, steps) and
(0, 1) serve as both.

The recurrence yields the pair after every step k, from P_k = (D_k +
D_{k-1})/2 and Q_k = O_h U_{k-1}, so the solution curve is read off the
same loop.  A snapshot is the k-step propagation over [0, k h], the same
recurrence stopped early.  The Al-Mohy & Higham bound holds per step for
any h no longer than the plan's, so a snapshot meets the same relative
backward error over k h as the terminal value over tau/2.

SciPy's ``expm_multiply`` on the sparse vectorized generator is the
reference (:func:`exact_propagate`).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import matrix_balance

from .errors import SolverError
from .linalg import gemm, matmul, unvec, vec

RK4_DEGREE = 4      # the Taylor degree of classic RK4 on a linear autonomous ODE
MAX_PLAN_TERMS = 10**7  # right-hand-side evaluations per propagation
MAX_POWER = 8       # the largest p of the planner's alpha_p (Al-Mohy & Higham 2011)
CONTIGUOUS_OPERANDS_MIN_N = 80  # term_operands copies S^T from here on

# theta_m: the largest alpha_p(hG), ||hG||_1 when p = 1, for which the degree-m
# Taylor polynomial has backward error at most 2^-53 (Al-Mohy & Higham 2011,
# Table 3.1 for m >= 35; m <= 30 from the same bound), each at or below the
# exact value so that it stays a valid bound.
TAYLOR_THETA = {
    1: 2.21e-16, 2: 2.58e-8, 3: 1.38e-5, 4: 3.39e-4, 5: 2.40e-3,
    6: 9.06e-3, 7: 2.38e-2, 8: 4.99e-2, 9: 8.95e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 2.99e-1, 13: 3.99e-1, 14: 5.13e-1, 15: 6.41e-1,
    16: 7.80e-1, 17: 9.30e-1, 18: 1.09, 19: 1.26, 20: 1.43,
    21: 1.62, 22: 1.81, 23: 2.01, 24: 2.21, 25: 2.42,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.53,
    35: 4.7, 40: 5.96, 45: 7.2, 50: 8.5, 55: 9.86,
}

# theta_m for a backward error of 2^-24, from the same bound, each rounded
# down to 3 significant digits so that it stays a valid bound: the table of
# the Krylov plan.  KRYLOV_THETA[m] > TAYLOR_THETA[m] for every m, so the
# Krylov plan never runs more terms than the double-precision one.
KRYLOV_THETA = {
    1: 1.19e-7, 2: 5.97e-4, 3: 1.12e-2, 4: 5.11e-2, 5: 1.30e-1,
    6: 2.49e-1, 7: 4.01e-1, 8: 5.80e-1, 9: 7.79e-1, 10: 9.95e-1,
    11: 1.22, 12: 1.46, 13: 1.70, 14: 1.95, 15: 2.21,
    16: 2.47, 17: 2.74, 18: 3.01, 19: 3.27, 20: 3.55,
    21: 3.82, 22: 4.09, 23: 4.37, 24: 4.64, 25: 4.92,
    26: 5.20, 27: 5.48, 28: 5.76, 29: 6.04, 30: 6.32,
    35: 7.72, 40: 9.13, 45: 10.5, 50: 11.9, 55: 13.3,
}

# both tables as arrays, made once: the degrees they share, and theta_m by row
_DEGREES = np.array(list(TAYLOR_THETA), dtype=float)
_THETAS = np.array([list(theta.values()) for theta in (TAYLOR_THETA, KRYLOV_THETA)])


def _check_count(value, name, least):
    """Raise ``ValueError`` unless value is an integer >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class OdeConfig:
    """The user-facing propagation setting, read by the one planner,
    ``plan_propagations``, alone; below ``solve_delay_lyapunov`` only the
    plans made from it are passed on.

    ``steps=None`` (the default) plans the Taylor degree and step count from
    bounds on the 1-norms of the generator's powers p = 1..9, balanced or
    not, whichever has the smaller 1-norm, for a double-precision target;
    ``steps=N``, an integer >= 1, runs N uniform
    degree-4 Taylor steps (the classic RK4 polynomial) on [0, tau/2]
    through the same even/odd recurrence as every plan, so it is fourth
    order like RK4 but not literally classic RK4.  Both give (0, 1) when
    ||tG||_1 = 0.
    """

    steps: int = None

    def __post_init__(self):
        if self.steps is not None:
            _check_count(self.steps, "steps", 1)


@dataclass(frozen=True)
class PropagationPlan:
    """Taylor degree and step count of one propagation over [0, tau/2].

    Raises ``ValueError`` unless degree is an integer >= 0 and steps an
    integer >= 1, and ``SolverError("plan-too-large")`` when degree * steps
    exceeds ``MAX_PLAN_TERMS``: such a propagation would not finish.
    """

    degree: int
    steps: int

    def __post_init__(self):
        _check_count(self.degree, "degree", 0)
        _check_count(self.steps, "steps", 1)
        if self.degree * self.steps > MAX_PLAN_TERMS:
            raise SolverError(
                "plan-too-large",
                f"{self.degree} x {self.steps:.3g} Taylor terms exceed the cap {MAX_PLAN_TERMS}",
            )

    @property
    def rhs_evals(self):
        """Right-hand-side evaluations per propagation over [0, tau/2]."""
        return self.degree * self.steps


@dataclass(frozen=True)
class PropagationResult:
    """Values of the coupled pair at the end of a propagation: t = tau/2, or
    t = k h after step k of the solution curve."""

    Z1_end: np.ndarray
    Z2_end: np.ndarray


def term_operands(A0, A1):
    """The coefficient operands (S-^T, S+^T) = ([A0^T, -A1^T], [A0^T, A1^T])
    of the Taylor terms g-+(B)^T = S-+^T [B^T; B], each n x 2n and float64,
    in this order, so that ``ST[j % 2]`` is the operand of term j.

    Below n = ``CONTIGUOUS_OPERANDS_MIN_N`` each is the transpose of the
    C-contiguous stack S-+ = [A0; -+A1], a view that ``dgemm`` reads
    through its transpose flag; from there on it is a C-contiguous copy,
    made once per propagation.  Each is the faster layout on its side,
    measured on one Krylov-plan propagation with SciPy's OpenBLAS 0.3.30
    (2 vCPU), in four alternating rounds: the view by 9 % at n = 18 and 3 %
    at n = 50, the copy by 9-10 % at n = 98, 242 and 450.

    Raises ``ValueError`` unless A0 and A1 are both n x n.
    """
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    n = A0.shape[0] if A0.ndim else 0
    if A0.shape != (n, n) or A1.shape != (n, n):
        raise ValueError(f"A0 and A1 must both be n x n, got {A0.shape} and {A1.shape}")
    ST = np.concatenate((A0, -A1)).T, np.concatenate((A0, A1)).T
    return tuple(map(np.ascontiguousarray, ST)) if n >= CONTIGUOUS_OPERANDS_MIN_N else ST


def coupled_rhs(V, ST, out, scale=1.0):
    """One Taylor term's generator action, transposed and scaled:
    out = scale ST V.

    V is the stacked pair [B^T; B], 2n x n, or the wide pair of a batch of
    b matrices, 2n x bn, whose column block k is [B_k^T; B_k]; ST is one of
    the n x 2n operands of ``term_operands``: S+^T gives g+(B)^T = A0^T B^T
    + A1^T B (even to odd), S-^T gives g-(B)^T = A0^T B^T - A1^T B (odd to
    even), block by block.  out is a C-contiguous float64 n x bn array and
    receives the product, one ``dgemm`` (``linalg.gemm``) for any b, the
    scale, a Taylor term's h/j, being its alpha.  Returns out; a V or out
    of another shape raises ``ValueError``, and b = 0 gives the empty out.
    """
    return gemm(ST, V, scale, out)


def _check_tau(tau):
    # the one tau rule, also run by TdsProblem and the CLI; scalar, run per apply
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and >= 0")


def _planning_coordinates(A0, A1):
    """(T, T^-1 A0 T, T^-1 A1 T), T the power-of-2 diagonal of LAPACK ``gebal``
    on A0 if it gives the smaller ||G||_1, else ones with the pair (A0, A1);
    ones too when A0 is not finite, which gebal rejects.  No warning escapes."""
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    if not np.isfinite(A0).all():
        return np.ones(A0.shape[0]), A0, A1
    T = matrix_balance(A0, permute=False, separate=True)[1][0]
    scale = np.outer(1.0 / T, T)
    with np.errstate(over="ignore", invalid="ignore"):
        balanced = A0 * scale, A1 * scale
        norm1 = [_generator_norm(*pair) for pair in ((A0, A1), balanced)]
    return (T, *balanced) if norm1[1] < norm1[0] else (np.ones_like(T), A0, A1)


def _generator_norm(A0, A1):
    """||G||_1: a unit matrix in Z1 or Z2 maps to a row of A0 plus one of A1."""
    return np.abs(A0).sum(axis=1).max() + np.abs(A1).sum(axis=1).max()


def _power_bounds(A0, A1, t):
    """Upper bounds on d_p = ||(tG)^p||_1^(1/p) for p = 1..MAX_POWER + 1,
    the first being ||tG||_1 itself.

    Column sums of |G|^p bound those of G^p, since |G^p| <= |G|^p entrywise.
    For both Z1 and Z2 they are the entries of Y_p = Y_{p-1} |A0|^T +
    |A1| Y_{p-1}^T, Y_0 = ones.  Each iterate is run on |A| / ||G||_1 and
    rescaled to max 1, keeping the log of its scale, so no bound overflows
    where ||tG||_1 is finite; a |G|^p that is zero gives zero bounds from p
    on.  ||tG||_1 must be finite and nonzero, as ``_plans`` checks first.
    """
    r0, r1 = np.abs(A0).sum(axis=1), np.abs(A1).sum(axis=1)
    norm = r0.max() + r1.max()
    bounds = np.zeros(MAX_POWER + 1)
    bounds[0] = t * norm
    B0, B1 = np.abs(A0) / norm, np.abs(A1) / norm
    Y = (r0[None, :] + r1[:, None]) / norm  # Y_1, from the row sums
    log_scale = 0.0
    for p in range(2, MAX_POWER + 2):
        Y = matmul(Y, B0.T) + matmul(B1, Y.T)
        top = Y.max()
        if top == 0.0:
            break
        Y /= top
        log_scale += math.log(top)
        # ||G^p||^(1/p) <= ||G||: the min only removes rounding
        bounds[p - 1] = bounds[0] * min(math.exp(log_scale / p), 1.0)
    return bounds


def plan_propagations(A0, A1, tau, cfg=None):
    """The two plans of one solve, (plan, krylov_plan): the Taylor degree m
    and step count s of a propagation to tau/2, for a backward error of
    2^-53 and of 2^-24.  The package's one planner.

    A zero ||tG||_1, t = tau/2 (tau = 0 or A0 = A1 = 0), gives (0, 1) to
    both under every setting.  Otherwise ``cfg.steps = N`` gives (4, N) to
    both.  Otherwise the plans are read off upper bounds on
    d_p = ||(tG)^p||_1^(1/p) for p = 1..9, all taken in one coordinate
    system: the original one or the one of T^-1 A0 T and T^-1 A1 T, T the
    diagonal power-of-2 scaling of LAPACK ``gebal`` on A0, whichever gives
    the smaller

        norm1 = t (||A0||_inf + ||A1||_inf) = ||tG||_1.

    The pair propagated from T X T under the balanced matrices is T Z T, so
    p(hG)^s is the same polynomial in either system.  On the PDDE matrices,
    whose Laplacian and identity blocks differ in scale by 1/h^2, balancing
    cuts norm1 from 74 to 9.7 (3x3) and from 1991 to 33 (21x21).  The bound
    on d_1 is norm1; for p >= 2 it is read off the column sums of |tG|^p
    (``_power_bounds``): 2 MAX_POWER products of n x n matrices and no
    random estimate.

    With alpha_p = max(d_p, d_{p+1}) and alpha(m) the least alpha_p over
    p(p-1) <= m + 1, each plan minimizes m * s, s = max(1, ceil(alpha(m) /
    theta_m)), over one theta table, ties going to the smallest m: the
    Al-Mohy & Higham plan (2009, Thm 4.2; 2011, fragment (3.1)), from
    ``TAYLOR_THETA`` for 2^-53 and from ``KRYLOV_THETA`` for 2^-24.  p = 1
    alone gives m * ceil(norm1 / theta_m), so no plan is larger than the
    one from the 1-norm alone, and the Krylov plan never has more terms
    than the other, since every KRYLOV_THETA[m] exceeds TAYLOR_THETA[m].
    Al-Mohy & Higham skip the power estimates below norm1 = 63.4, weighing
    them against one exponential action; here one plan serves every apply
    of a solve.  The plans depend only on (A0, A1, tau, cfg).

    The 2^-53 plan runs the solver's checks: the boundary residuals, the
    true residual of refinement and the reconstructed solution curve.  The
    Krylov operator of ``solve_delay_lyapunov`` runs the 2^-24 plan.  Each
    plan is fixed before any X is seen, so each operator is a fixed
    polynomial in G and exactly linear; refinement on the 2^-53 residual
    corrects what the coarser operator misses.

    Raises
    ------
    ValueError
        When tau is not finite or is negative.
    SolverError
        ``"exp-overflow"`` when norm1, or the number of terms it implies, is
        not finite; ``"plan-too-large"`` when that number is finite but
        exceeds ``MAX_PLAN_TERMS``.  No warning escapes.
    """
    _check_tau(tau)
    return _plans(*_planning_coordinates(A0, A1)[1:], tau, (cfg or OdeConfig()).steps)


def _plans(B0, B1, tau, steps=None):
    """The plans of :func:`plan_propagations` from the planning pair (B0, B1)
    and ``OdeConfig.steps``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm1 = 0.5 * tau * _generator_norm(B0, B1)
        if norm1 == 0.0:  # zero length: p(hG) = I whatever (m, s), so run no term
            return (PropagationPlan(0, 1),) * 2
        if steps is not None:
            return (PropagationPlan(RK4_DEGREE, steps),) * 2
        if not np.isfinite(norm1):
            raise SolverError("exp-overflow", "||tG||_1 overflowed")
        d = _power_bounds(B0, B1, 0.5 * tau)
        p = np.arange(1, MAX_POWER + 1)
        alpha = np.where(p * (p - 1) <= _DEGREES[:, None] + 1,
                         np.maximum(d[:-1], d[1:]), np.inf).min(axis=1)
        s = np.maximum(np.ceil(alpha / _THETAS), 1.0)  # one row per table
        terms = _DEGREES * s
    if not np.isfinite(terms.min(axis=1)).all():
        raise SolverError("exp-overflow",
                          f"the Taylor term count overflowed for ||tG||_1 = {norm1:.3g}")
    # the first minimum of each row: ties go to the smallest m
    return tuple(PropagationPlan(int(_DEGREES[k]), int(s[row, k]))
                 for row, k in enumerate(terms.argmin(axis=1)))


def _even_odd_pass(ST, V, scales):
    """(W V, O_h V) for a swap-even V: the even terms j >= 2 and the odd
    terms of one Taylor step, on the operands ST = (S-^T, S+^T) of
    ``term_operands``, with ``scales[j - 1]`` = h/j for a step of length h.

    V is n x n or a batch (..., n, n) of b matrices, held as the column
    blocks of one wide pair per buffer, 2n x bn: column block k holds
    [B_k^T; B_k].  Term j reads the pair of B_{j-1} in buffer (j - 1) % 2
    and writes every B_j^T = (h/j) g(B_{j-1})^T into the top half of buffer
    j % 2 by one ``coupled_rhs`` call, looked up on the module at every
    term, whatever b: one ``dgemm`` with the scale h/j as its alpha.  Two
    in-place steps follow: the transposed copy of the top half into the
    bottom one, one strided copy through the (n, b, n) views of both, and
    the add of that bottom half, every B_j, to its parity's sum.
    """
    n = V.shape[-1]
    b = math.prod(V.shape[:-2])
    pairs = np.empty((2, 2 * n, b * n))
    sums = list(np.zeros((2, n, b, n)))  # a list: sums[k] += x copies nothing back
    tops = [pair[:n] for pair in pairs]  # C-contiguous, as gemm's out must be
    # (n, b, n) views, entry [i, k, j] of each being B_k[i, j]: the bottom
    # half, and the top half through a transpose
    bottoms = [pair[n:].reshape(n, b, n) for pair in pairs]
    tops_t = [top.reshape(n, b, n).transpose(2, 1, 0) for top in tops]
    tops_t[0][...] = bottoms[0][...] = V.reshape(b, n, n).transpose(1, 0, 2)
    for j, scale in enumerate(scales, 1):
        k = j % 2
        coupled_rhs(pairs[1 - k], ST[k], tops[k], scale)
        bottoms[k][...] = tops_t[k]
        sums[k] += bottoms[k]
    return [s.transpose(1, 0, 2).reshape(V.shape) for s in sums]


def _chebyshev_steps(A0, A1, X, h, degree, steps):
    """Yield the pair (Z1, Z2) = (P_k + Q_k, P_k - Q_k) at t = k h for
    k = 1..steps, from Z1(0) = Z2(0) = X, by the Chebyshev recurrence in
    difference form.  The term operands and scales are built once, before
    the first step.  Raises ``SolverError("exp-overflow")`` at the first
    step whose pair is not finite, so an overflowing propagation stops
    there.
    """
    ST = term_operands(A0, A1)
    scales = [h / j for j in range(1, degree + 1)]
    U = D = X
    for _ in range(steps):
        WU, Q = _even_odd_pass(ST, U, scales)
        D_prev, D = D, D + 2.0 * WU
        U = U + D
        P = 0.5 * (D + D_prev)
        Z1, Z2 = P + Q, P - Q
        if not (np.isfinite(Z1).all() and np.isfinite(Z2).all()):
            raise SolverError("exp-overflow", "the propagated pair overflowed")
        yield PropagationResult(Z1, Z2)


def rk4_propagate(A0, A1, X, tau, *, plan=None):
    """Propagate Z1, Z2 from the common initial value X to t = tau/2.

    X is n x n or a batch (..., n, n) of b matrices.  Runs the plan's s
    passes of m single-matrix Taylor terms and combines them by the
    Chebyshev recurrence in difference form (module docstring): m s
    products S^T [B^T; B] of an n x 2n operand by a 2n x bn pair in all,
    the batch held as the pair's column blocks, so one 2-D product per term
    for any b; without ``plan`` it runs the default 2^-53 plan,
    ``plan_propagations(A0, A1, tau)[0]``.
    The map X -> (Z1_end, Z2_end) is linear, since every propagation applies
    the same fixed polynomial in G.  At tau = 0 the default plan is (0, 1)
    and any plan runs with h = 0, giving (X, X) to the bit; a tau that is
    not finite or is negative raises ``ValueError``.
    The name is kept because it is the package's one propagation entry
    point; the plan of ``OdeConfig(steps=N)`` gives N degree-4 steps of the
    order of classic RK4 through the same recurrence, not classic RK4 itself.
    Raises ``SolverError("exp-overflow")``, with no warning, at the first
    step whose pair overflows.
    """
    X = np.asarray(X, dtype=float)
    _check_tau(tau)
    plan = plan or plan_propagations(A0, A1, tau)[0]
    h = (0.5 * tau) / plan.steps
    with np.errstate(over="ignore", invalid="ignore"):
        for pair in _chebyshev_steps(A0, A1, X, h, plan.degree, plan.steps):
            pass
    return pair


def exact_propagate(A0, A1, X, tau):
    """Terminal pair by SciPy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33(2), 2011), a reference that shares no propagation code
    with :func:`rk4_propagate`.

    The state [vec Z1; vec Z2^T] starts at [vec X; vec X^T] and is
    multiplied by exp((tau/2) G), with G the sparse 2n^2 x 2n^2 generator

        G = [[A0^T (x) I, A1^T (x) I], [-(I (x) A1^T), -(I (x) A0^T)]],

    built with ``scipy.sparse.kron`` and ``bmat``, in the coordinates of its
    plan check (``_planning_coordinates``; the pair from T X T under T^-1 A0 T,
    T^-1 A1 T is T Z T), which keeps ||tG||_1 small enough that SciPy's
    ``onenormest`` and its global-RNG draws are not reached on the PDDE matrices.

    Raises
    ------
    ValueError
        When tau is not finite or is negative.
    SolverError
        ``"exp-overflow"`` or ``"plan-too-large"`` where the default plans
        of :func:`plan_propagations` raise them, so that no propagation
        runs for ever, and ``"exp-overflow"`` when the pair is not finite.
    """
    from scipy.sparse import bmat, csr_array, identity, kron
    from scipy.sparse.linalg import expm_multiply

    X = np.asarray(X, dtype=float)
    _check_tau(tau)
    T, B0, B1 = _planning_coordinates(A0, A1)
    _plans(B0, B1, tau)  # raises where plan_propagations does
    TXT = np.outer(T, T)
    B0T, B1T = csr_array(B0.T), csr_array(B1.T)
    n = X.shape[0]
    I = identity(n, format="csr")
    G = bmat([[kron(B0T, I), kron(B1T, I)], [-kron(I, B1T), -kron(I, B0T)]], format="csr")
    Y = X * TXT
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm_multiply((0.5 * tau) * G, np.concatenate([vec(Y), vec(Y.T)]))
    if not np.isfinite(out).all():
        raise SolverError("exp-overflow", "the propagated pair overflowed")
    return PropagationResult(unvec(out[: n * n]) / TXT, unvec(out[n * n:]).T / TXT)
