"""Boundary cases for the two-subspace decisions: X inside Y, W0 inside V1,
Gamma inside W0, and V0 meeting W0 only in zero.

Each builder works on a 4-point shift grid with 4 channels (Gram
normalization 1, fibers given directly) and pushes the fiber at dual point 2
off a span by delta = eps times the cutoff of the residual rule,
tol * max(sigma_max of the span's holder, ||F_p||_F, 1), where F_p is the
stack whose residual is measured; every other fiber lies in the span
exactly.  The in-span parts are chosen so that a rank of the joint stack
[span | F] would flip elsewhere (at eps = 1.39 to 2 here), which shows the
verdicts a rule change moves.  Entries are multiples of e_0..e_3 and tol is
a power of two, so at eps = 1 the residual norm equals the cutoff in
floating point, and "at or below the cutoff" is seen against "below".

Cases at eps = 1e-2 and 1e2 agree with the exact verdict of the rule (inside
below the cutoff, outside above it).  The in-band cases, eps in 10**(+-0.5),
1 +- 1e-6 and 1, pin today's verdict; a rule change lists each one it moves.
The split's overlap test still ranks the joint stack of the two fiber bases
(its factors serve the projector), so it flips at eps = 2.
"""

import numpy as np
import pytest

import wandergen as wg
from wandergen import fibers
from wandergen.oblique import direct_sum_check

TOL = 2.0**-30
POINT = 2
FAR = {"1e-2": 1e-2, "1e2": 1e2}
IN_BAND = {"10^-0.5": 10**-0.5, "1-1e-6": 1 - 1e-6, "1": 1.0, "1+1e-6": 1 + 1e-6, "10^0.5": 10**0.5}
EPS = {**FAR, **IN_BAND}
E = np.eye(4)


def sampled(*columns, delta=0.0, column=-1):
    """A shift-mode holder whose fiber at every point has the given columns;
    at POINT the chosen column also gets delta * e_2."""
    F = np.tile(np.stack(columns, axis=1).astype(np.complex128), (4, 1, 1))
    F[POINT, 2, column] += delta
    return wg.SampledFamily(wg.SystemSpace(wg.IntegerShift(4), 4), F)


def verdict(call):
    try:
        out = call()
    except wg.WandergenError as exc:
        return f"{exc.code}: {exc}"
    return out if isinstance(out, bool) else "ok"


def x_in_y(eps):
    """X = [e0 + e1 + delta e2, e1 - e0] against Y = [2 e0, e1]: sigma_max(Y) =
    ||X_p||_F = 2, so the cutoff is 2 tol; the joint stack's is sqrt(6) tol
    and its third singular value delta / sqrt(2)."""
    Y = sampled(2 * E[0], E[1])
    X = sampled(E[0] + E[1], E[1] - E[0], delta=eps * 2 * TOL, column=0)
    return X, Y


def w0_in_v1(eps):
    """V0 = [e0] inside V1 = [2 e0, e1], and W0 = [0.6 e0 + 0.8 e1 + delta e2]:
    W0's unit fiber basis has residual delta off V1 and the cutoff is 2 tol."""
    V1 = sampled(2 * E[0], E[1])
    W0 = sampled(0.6 * E[0] + 0.8 * E[1], delta=eps * 2 * TOL, column=0)
    return sampled(E[0]), W0, V1


def gamma_in_w0(eps):
    """Gamma = [2 e0, 2 e1, 2 e0 + 2 e1 + delta e2] against W0 = [e0, e1]:
    ||Gamma_p||_F = 4 sets the cutoff, 4 tol."""
    W0 = sampled(E[0], E[1])
    gamma = sampled(2 * E[0], 2 * E[1], 2 * E[0] + 2 * E[1], delta=eps * 4 * TOL)
    return gamma, W0


def v0_meets_w0(eps):
    """V0 = [e0] and W0 = [e1] inside V1 = [e0, e1], except that at POINT
    W0 = [e0 + delta e1]: V0's residual off W0 there has norm delta, against
    the cutoff tol; the joint stack [V0 | W0] has second singular value
    delta / sqrt(2) against sqrt(2) tol."""
    W0 = sampled(E[1])
    F = W0.fibers.copy()
    F[POINT, :, 0] = E[0] + eps * TOL * E[1]
    return sampled(E[0]), wg.SampledFamily(W0.space, F), sampled(E[0], E[1])


LEAVES_W0 = "NotDirectSum: W0 fibers leave the fine space at dual point 2"
OVERLAP = "NotDirectSum: V0 and W0 fibers overlap at dual point 2"

# decision: (verdict of the built case, verdict inside, verdict outside, in-band verdicts);
# a joint-rank containment rule read "inside" (True / "ok" / False for
# direct_sum_check) at 1+1e-6 in the first five
DECISIONS = {
    "X in Y": (
        lambda eps: fibers.is_contained(*x_in_y(eps), TOL),
        True, False,
        {"10^-0.5": True, "1-1e-6": True, "1": True, "1+1e-6": False, "10^0.5": False},
    ),
    "X in Y, at the complement's entry": (
        lambda eps: verdict(lambda: wg.orth_complement_in(x_in_y(eps)[1], x_in_y(eps)[0], TOL)),
        "ok", "NotContained: X's orbit span must sit inside Y's",
        {"10^-0.5": "ok", "1-1e-6": "ok", "1": "ok",
         "1+1e-6": "NotContained: X's orbit span must sit inside Y's",
         "10^0.5": "NotContained: X's orbit span must sit inside Y's"},
    ),
    "W0 in V1": (
        lambda eps: verdict(lambda: wg.oblique_projector(*w0_in_v1(eps), TOL)),
        "ok", LEAVES_W0,
        {"10^-0.5": "ok", "1-1e-6": "ok", "1": "ok", "1+1e-6": LEAVES_W0, "10^0.5": LEAVES_W0},
    ),
    "Gamma in W0": (
        lambda eps: fibers.is_contained(*gamma_in_w0(eps), TOL),
        True, False,
        {"10^-0.5": True, "1-1e-6": True, "1": True, "1+1e-6": False, "10^0.5": False},
    ),
    "V0 meets W0, direct_sum_check": (
        lambda eps: direct_sum_check(*v0_meets_w0(eps)[:2], TOL),
        False, True,
        {"10^-0.5": False, "1-1e-6": False, "1": False, "1+1e-6": True, "10^0.5": True},
    ),
    "V0 meets W0, at the split": (
        lambda eps: verdict(lambda: wg.oblique_projector(*v0_meets_w0(eps), TOL)),
        OVERLAP, "ok",
        {"10^-0.5": OVERLAP, "1-1e-6": OVERLAP, "1": OVERLAP, "1+1e-6": OVERLAP, "10^0.5": "ok"},
    ),
}


@pytest.mark.parametrize("eps", list(FAR))
@pytest.mark.parametrize("decision", list(DECISIONS))
def test_far_from_the_cutoff_is_the_exact_verdict(decision, eps):
    decide, inside, outside, _ = DECISIONS[decision]
    assert decide(FAR[eps]) == (inside if FAR[eps] < 1 else outside)


@pytest.mark.parametrize("eps", list(IN_BAND))
@pytest.mark.parametrize("decision", list(DECISIONS))
def test_in_band_verdict_is_pinned(decision, eps):
    decide, _, _, pinned = DECISIONS[decision]
    assert decide(IN_BAND[eps]) == pinned[eps]


def test_at_the_cutoff_the_residual_equals_it():
    """The eps = 1 builders put the residual norm exactly on the cutoff; W0's
    case measures W0's unit fiber basis, as the split does."""
    (X, Y), (V0, W0, _), (gamma, W0_gamma) = x_in_y(1.0), v0_meets_w0(1.0), gamma_in_w0(1.0)
    _, W0_unit, V1 = w0_in_v1(1.0)
    cases = (
        (X.fibers, Y, 2 * TOL),
        (W0_unit.svd[0][:, :, :1], V1, 2 * TOL),
        (gamma.fibers, W0_gamma, 4 * TOL),
        (V0.fibers, W0, TOL),
    )
    for F, holder, cut in cases:
        U, s = holder.svd
        B = U[POINT][:, s[POINT] > TOL]
        R = F[POINT] - B @ (B.conj().T @ F[POINT])
        assert np.linalg.norm(R) == cut
