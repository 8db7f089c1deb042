"""Boundary cases for the two-subspace decisions: X inside Y, W0 inside V1,
Gamma inside W0, V0 meeting W0 only in zero, and M' inside M (+) N for the
projection pair; and for the residual tests against tol_bio: the
biorthogonality of the biorthogonal pipeline's inputs, the wandering
residual and the agreement of class functions.

Each builder works on a 4-point shift grid with 4 channels (Gram
normalization 1, fibers given directly) and pushes the fiber at dual point 2
off a span by delta = eps times the cutoff of the residual rule,
tol * max(sigma_max of the span's holder, ||F_p||_F, 1), where F_p is the
stack whose residual is measured; every other fiber lies in the span
exactly.  The in-span parts are chosen so that a rank of the joint stack
[span | F] would flip elsewhere (at eps = 1.39 to 2.5 here), which shows the
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
from wandergen import nonabelian as na
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


def pair_complements(eps):
    """M = [e0] and M' = [2 e0 + delta e2], complements of N = [e1]: M''s
    residual off [M | N] has norm delta against the cutoff 2 tol (||M'_p||_F
    = 2); the three-block stack [M | M' | N] has smallest singular value
    0.4 eps tol against its cutoff tol * sigma_max, so its rank flips at
    eps = 2.5."""
    return sampled(E[0]), sampled(2 * E[0], delta=eps * 2 * TOL), sampled(E[1])


LEAVES_W0 = "NotDirectSum: W0 fibers leave the fine space at dual point 2"
DIFFER = "NotDirectSum: M (+) N and M' (+) N differ at dual point 2"
OVERLAP = "NotDirectSum: V0 and W0 fibers overlap at dual point 2"

# decision: (verdict of the built case, verdict inside, verdict outside, in-band verdicts);
# a joint-rank containment rule read "inside" (True / "ok" / False for
# direct_sum_check) at 1+1e-6 in the first five and the last
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
    "M' in M (+) N, at the projection pair": (
        lambda eps: verdict(lambda: wg.restricted_projection_pair(*pair_complements(eps), TOL)),
        "ok", DIFFER,
        {"10^-0.5": "ok", "1-1e-6": "ok", "1": "ok", "1+1e-6": DIFFER, "10^0.5": DIFFER},
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
    _, Mp, _ = pair_complements(1.0)
    cases = (
        (X.fibers, Y, 2 * TOL),
        (W0_unit.svd[0][:, :, :1], V1, 2 * TOL),
        (gamma.fibers, W0_gamma, 4 * TOL),
        (V0.fibers, W0, TOL),
        (Mp.fibers, sampled(E[0], E[1]), 2 * TOL),
    )
    for F, holder, cut in cases:
        U, s = holder.svd
        B = U[POINT][:, s[POINT] > TOL]
        R = F[POINT] - B @ (B.conj().T @ F[POINT])
        assert np.linalg.norm(R) == cut


# biorthogonality of the biortho inputs: the cross-Gram residual against tol_bio
TOL_BIO = 2.0**-30
BIO_EPS = {"1e-2": 1e-2, "1-1e-6": 1 - 1e-6, "1": 1.0, "1+1e-6": 1 + 1e-6, "1e2": 1e2}


def with_entry(holder, channel, column, value):
    """The holder with value added to one fiber entry at POINT."""
    F = holder.fibers.copy()
    F[POINT, channel, column] += value
    return wg.SampledFamily(holder.space, F)


def x_pair_off_by(delta):
    """X = [e0, e1] inside Y = [e0, e1, e2], Xt = [e0 + e2 + e3, e1 + e2 + e3]
    inside Yt = [e0, e1, e2 + e3], except that at POINT Xt's second column
    gains delta e0: the X/Xt cross-Gram is I + delta E_01 there, Y/Yt's is I.
    Xt sees the complement Z = e2, so a Q0 that takes the X/Xt pairing for I
    leaves Gamma off Xt by delta."""
    Xt = with_entry(sampled(E[0] + E[2] + E[3], E[1] + E[2] + E[3]), 0, 1, delta)
    return sampled(E[0], E[1]), Xt, sampled(E[0], E[1], E[2]), sampled(E[0], E[1], E[2] + E[3])


def y_pair_off_by(delta):
    """Y = [e0, e1, e2] against Yt = [e0 + e3, e1 + delta e0, e2], with
    X = [e0, e1] and Xt = [e0 + e2 + e3, e1 + e2 - delta e3] = [yt0 + yt2,
    -delta yt0 + yt1 + yt2] inside it, delta at POINT only: the Y/Yt
    cross-Gram is I + delta E_01 there, X/Xt's is I."""
    Yt = with_entry(sampled(E[0] + E[3], E[1], E[2]), 0, 1, delta)
    Xt = with_entry(sampled(E[0] + E[2] + E[3], E[1] + E[2]), 3, 1, -delta)
    return sampled(E[0], E[1]), Xt, sampled(E[0], E[1], E[2]), Yt


BIO_PAIRS = {"X": x_pair_off_by, "Y": y_pair_off_by}


@pytest.mark.parametrize("eps", list(BIO_EPS))
@pytest.mark.parametrize("pushed", list(BIO_PAIRS))
def test_biortho_at_the_bio_tolerance(pushed, eps):
    """Above tol_bio the pushed pair is refused; at or below it the pipeline
    succeeds, and the wavelets pair with everything exactly: the union
    cross-Gram is I but for the inputs' own X/Xt block."""
    X, Xt, Y, Yt = quadruple = BIO_PAIRS[pushed](BIO_EPS[eps] * TOL_BIO)
    A, At = (X, Xt) if pushed == "X" else (Y, Yt)
    assert fibers.is_biorthogonal(A, At).residual == BIO_EPS[eps] * TOL_BIO
    if BIO_EPS[eps] > 1:
        refused = f"HypothesisFailure: {pushed} and {pushed}t are not biorthogonal (residual {BIO_EPS[eps] * TOL_BIO:.3e})"
        assert verdict(lambda: wg.biorthogonal_wavelets(*quadruple, tol_bio=TOL_BIO)) == refused
        return
    pair = wg.biorthogonal_wavelets(*quadruple, tol_bio=TOL_BIO)
    assert pair.pair_residual <= 1e-12
    cross = fibers.mixed_gramian(fibers.union_family(X, pair.gamma), fibers.union_family(Xt, pair.gamma_tilde))
    expected = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    expected[:, :2, :2] = fibers.mixed_gramian(X, Xt).matrices
    assert np.max(np.abs(cross.matrices - expected)) <= 1e-12


def wandering_off_by(delta):
    """X = [e0, e1] but for delta e0 added to e1 at POINT: the Gram fiber
    there is [[1, delta], [delta, 1 + delta^2]], so the residual is delta
    (delta^2 is below delta, and rounds away at or below the tolerance)."""
    return with_entry(sampled(E[0], E[1]), 0, 1, delta)


@pytest.mark.parametrize("eps", list(BIO_EPS))
def test_wandering_at_the_bio_tolerance(eps):
    """The certificate and the complement's entry check read the same
    residual: at or below tol_bio X is wandering, above it is refused."""
    delta = BIO_EPS[eps] * TOL_BIO
    cert = wg.verify_wandering(wandering_off_by(delta), tol_bio=TOL_BIO)
    assert (cert.max_gram_residual, cert.valid) == (delta, BIO_EPS[eps] <= 1)
    Y = sampled(E[0], E[1], E[2])
    complement = verdict(lambda: wg.complement_wandering(wandering_off_by(delta), Y, tol_bio=TOL_BIO))
    assert complement == ("ok" if BIO_EPS[eps] <= 1 else f"NotWandering: X is not wandering (residual {delta:.3e})")


@pytest.mark.parametrize("eps", list(BIO_EPS))
def test_class_functions_agree_at_the_tolerance(eps):
    """S3 characters (2, 0, -1) and (2, delta, -1): they agree exactly when
    |delta| is at or below the tolerance."""
    group, delta = na.symmetric_3(), BIO_EPS[eps] * TOL_BIO
    chi, pushed = na.ClassFunction(group, (2.0, 0.0, -1.0)), na.ClassFunction(group, (2.0, delta, -1.0))
    assert chi.agrees(pushed, TOL_BIO) is pushed.agrees(chi, TOL_BIO) is (BIO_EPS[eps] <= 1)
