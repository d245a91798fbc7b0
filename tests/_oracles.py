"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the library's own computational
paths: the periodogram is a direct DFT sum, the ACVF is a truncated
MA(infinity) convolution, the HPD window comes from exhaustive
enumeration, the profiled local Whittle objective is a least-squares
fit per d, the AIC order refits Burg at every order instead of reading
one sweep (a fixed-order fit sweeps one series to its own order), and
the ARFIMA ACVF rows, the AR path and the bootstrap
draws run their recursions sequentially through ``scipy.signal.lfilter``.
The SPLW solve tests both edges of the search interval before its Newton
steps start, where the library tests only the edge that R' at the
midpoint points to.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.special import gamma as _gamma

from longmem import arfima
from longmem.arfima import _LOG_2PI, _fractional_acvf
from longmem.arsieve import _burg_arfit, _burg_failure, _burg_reflections, _durbin_levinson
from longmem.fracdiff import apply_frac_filter


def direct_periodogram(y, N):
    """O(T*N) periodogram with explicit complex exponentials."""
    y = np.asarray(y, dtype=float)
    T = y.size
    x = y - y.mean()
    t = np.arange(1, T + 1)
    out = np.empty(N)
    for j in range(1, N + 1):
        lam = 2.0 * np.pi * j / T
        s = np.sum(x * np.exp(-1j * lam * t))
        out[j - 1] = abs(s) ** 2 / (2.0 * np.pi * T)
    return out


def whittle_objective(d, y, N, P):
    """Profiled SPLW(P) objective R(d) of series y on its first N ordinates.

    The local spectrum is G l**(-2d) exp(-sum_k th_k l**(2k)). G is
    profiled analytically, and th by least squares: log I_j + 2 d log l_j
    is regressed on {1, l^2, .., l^(2P)} at this d, so th_k is minus the
    coefficient of l^(2k). Then R = log mean_j[I_j e^{s_j}] - mean_j s_j
    with s_j = 2 d log l_j + sum_k th_k l_j^(2k).
    """
    lam = 2.0 * np.pi * np.arange(1, N + 1) / np.asarray(y).size
    logI = np.log(direct_periodogram(y, N))
    s = 2.0 * d * np.log(lam)
    if P:
        X = np.column_stack([lam ** (2 * k) for k in range(P + 1)])
        coef = np.linalg.lstsq(X, logI + s, rcond=None)[0]
        s = s - X[:, 1:] @ coef[1:]
    expo = s + logI
    shift = expo.max()
    return shift + np.log(np.mean(np.exp(expo - shift))) - np.mean(s)


def newton_solve_two_edges(base, g, lo, hi):
    """SPLW minimizer over [lo, hi] of every row of base = c + logI.

    Both edges are tested first: a row whose R' is >= 0 at `lo` returns
    `lo`, else one whose R' is <= 0 at `hi` returns `hi`. The other rows
    take safeguarded Newton steps on R' = 0 from the midpoint inside
    their own sign bracket, with the row-wise arithmetic of
    ``estimators._newton_solve``, so the two must agree bit for bit.

    Returns (d, boundary), one entry per row.
    """
    gbar = np.mean(g)

    def slope(base_rows, x):
        expo = base_rows + x[:, None] * g
        expo -= np.maximum.reduce(expo, axis=-1, keepdims=True)
        w = np.exp(expo)
        wsum = np.add.reduce(w, axis=-1)
        m1 = np.vecdot(w, g) / wsum
        return m1 - gbar, np.vecdot(w, (g - m1[:, None]) ** 2) / wsum

    n = base.shape[0]
    at_lo = slope(base, np.full(n, lo))[0] >= 0.0
    at_hi = slope(base, np.full(n, hi))[0] <= 0.0
    edge = at_lo | at_hi
    d = np.where(at_lo, lo, hi)
    for i in np.flatnonzero(~edge):
        row = base[i : i + 1]
        a, b = lo, hi
        x = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(100):
                r1, r2 = (v[0] for v in slope(row, np.array([x])))
                if r1 < 0.0:
                    a = x
                else:
                    b = x
                x_new = x - r1 / r2
                if not a <= x_new <= b:
                    x_new = 0.5 * (a + b)
                done = abs(x_new - x) < 1e-13
                x = x_new
                if done:
                    break
        d[i] = x
    return d, edge


def frac_filter_by_loop(y, d):
    """Truncated fractional filter as an explicit double loop."""
    y = np.asarray(y, dtype=float)
    T = y.size
    a = np.empty(T)
    a[0] = 1.0
    for j in range(1, T):
        a[j] = a[j - 1] * (j - 1 - d) / j
    w = np.zeros(T)
    for t in range(T):
        w[t] = np.dot(a[: t + 1], y[t::-1])
    return w


def ma_truncated_acvf(d, phi, sigma2, max_lag, n_terms=10 ** 6):
    """ACVF of ARFIMA(1,d,0) by truncated MA(infinity) convolution.

    gamma(tau) = sigma2 * sum_j k_j k_{j+tau} with k the impulse response
    of (1-phi z)^{-1} (1-z)^{-d}, summed over the first ``n_terms`` weights.
    The dropped tail decays like j^(2d-2), far too slowly to ignore at
    large d, so it is added back via the midpoint-rule integral of the
    asymptotic form k_j ~ j^(d-1) / (Gamma(d)(1-phi)) * (1 + q/j).
    """
    J = n_terms
    b = np.empty(J + max_lag + 1)
    b[0] = 1.0
    j = np.arange(1, J + max_lag + 1, dtype=float)
    b[1:] = np.cumprod((j - 1.0 + d) / j)
    k = lfilter([1.0], [1.0, -phi], b)
    gam = np.array(
        [np.dot(k[:J], k[tau : J + tau]) for tau in range(max_lag + 1)]
    )
    if d != 0.0:
        A = 1.0 / (_gamma(d) * (1.0 - phi))
        q = (1.0 - d) * phi / (1.0 - phi) + d * (d - 1.0) / 2.0
        c = J + 0.5
        tau = np.arange(max_lag + 1, dtype=float)
        t0 = c ** (2 * d - 1) / (1 - 2 * d)
        t1 = c ** (2 * d - 2) / (2 - 2 * d)
        t2 = c ** (2 * d - 3) / (3 - 2 * d)
        coef1 = (d - 1) * tau + 2 * q
        coef2 = (d - 1) * (d - 2) * tau ** 2 / 2 + 2 * q * (d - 1) * tau - q * tau
        gam += A * A * (t0 + coef1 * t1 + coef2 * t2)
    return sigma2 * gam


def hpd_window_exhaustive(draws, d_hat, alpha_lower, alpha_upper):
    """HPD interval by enumerating every candidate window."""
    draws = np.asarray(draws, dtype=float)
    B = draws.size
    m = int(np.ceil((1.0 - alpha_lower - alpha_upper) * B))
    centered = np.sort(draws - draws.mean())
    best = None
    for i in range(B - m + 1):
        width = centered[i + m - 1] - centered[i]
        if best is None or width < best[0]:
            best = (width, i)
    i = best[1]
    return (d_hat - centered[i + m - 1], d_hat - centered[i])


def acvf_rows_lfilter(d_values, phi, T, m_tail):
    """ARFIMA(1,d,0) ACVF rows gamma(0..T-1) by sequential recursions.

    The same two geometric recursions as ``arfima._acvf_rows``, each run
    by ``lfilter``: g(k) = gamma_d(k) + phi g(k+1) backwards from m_tail
    terms beyond lag n - 1 (tail included, so its alternating terms are
    summed by the recursion too), then gamma_y(k) = phi gamma_y(k-1) + g(k)
    from gamma_y(0) = (g(0) + phi g(1)) / (1 - phi^2).
    """
    n = max(T, 2)
    rows = np.array([_fractional_acvf(d, 1.0, n + m_tail) for d in d_values])
    if phi == 0.0:
        return rows[:, :T]
    g = lfilter([1.0], [1.0, -phi], rows[:, ::-1], axis=1)[:, ::-1]
    gamma0 = (g[:, 0] + phi * g[:, 1]) / (1.0 - phi * phi)
    out = np.empty((len(d_values), n))
    out[:, 0] = gamma0
    out[:, 1:], _ = lfilter(
        [1.0], [1.0, -phi], g[:, 1:n], axis=1, zi=(phi * gamma0)[:, None]
    )
    return out[:, :T]


def ar_path_lfilter(phi, eps, init):
    """AR paths sum_j phi[j] w(t-j) = eps(t) along the last axis, by lfilter.

    The filter state that reproduces the pre-sample block ``init``
    (w(1-h), ..., w(0)) is what ``scipy.signal.lfiltic`` gives, built for
    every row.
    """
    h = len(phi) - 1
    if h == 0:
        return np.array(eps, dtype=float)
    past = init[..., ::-1]
    zi = np.empty(init.shape)
    for m in range(h):
        zi[..., m] = -(phi[m + 1 :] * past[..., : h - m]).sum(axis=-1)
    return lfilter([1.0], phi, eps, axis=-1, zi=zi)[0]


def burg_fit(w, h):
    """The Burg AR(h) fit of one series, from a sweep of its own to order h.

    The series is swept as a stack of one row; a failed sweep raises its
    NumericalDegeneracyError.
    """
    ks, sig = _burg_reflections(w[None], h)
    failure = _burg_failure(ks[0])
    if failure is not None:
        raise failure
    return _burg_arfit(ks[0], sig[0])


def aic_order_by_refits(w, h_max):
    """The AIC order over h = 1..h_max, with a Burg sweep of its own per order.

    AIC(h) = T*log(sigma_h^2) + 2h, where sigma_h^2 ends the sweep to h;
    ties break toward the smaller order.
    """
    sig = np.array([burg_fit(w, h).sigma2 for h in range(1, h_max + 1)])
    return int(np.argmin(len(w) * np.log(sig) + 2.0 * np.arange(1, h_max + 1))) + 1


def draw_lfilter(phi, eps, init, d_f):
    """Bootstrap draw in two stages: the AR path by lfilter, then (1-z)**-d_f."""
    return apply_frac_filter(ar_path_lfilter(phi, eps, init), -d_f)


def full_acvf_loglik(Y, gammas):
    """Profile log-likelihoods from full ARFIMA ACVF rows, k problems at once.

    The exact likelihood as the MLE evaluated it before the AR(1) was
    factored out: one Durbin-Levinson sweep per ACVF row gamma_y(0..T-1)
    (problem i has g rows in gammas[i], shape (k, g, T)) and the
    prediction errors of its series Y[i] (T, r). Returns ll and sigma2 of
    shape (k, g, r), -inf where a row is not positive definite.
    """
    k, g, T = gammas.shape
    Y_rev = np.ascontiguousarray(Y[:, ::-1])
    steps = _durbin_levinson(gammas.reshape(k * g, T))
    _, _, _, v, bad = next(steps)
    sumlog = np.log(v)
    quad = Y[:, :1] ** 2 / v.reshape(k, g, 1)
    for t, _, b, v, _ in steps:
        sumlog += np.log(v)
        e = Y[:, t : t + 1] - b.reshape(k, g, t) @ Y_rev[:, T - t :]
        quad += e * e / v.reshape(k, g, 1)
    sigma2 = quad / T
    ll = -0.5 * T * (_LOG_2PI + np.log(sigma2) + 1.0) - 0.5 * sumlog.reshape(k, g, 1)
    ll[bad.reshape(k, g)] = -np.inf
    return ll, sigma2


def nelder_mead_loglik(y, d0, phi0, tol=1e-6):
    """Profile log-likelihood that bounded Nelder-Mead reaches from (d0, phi0).

    The refinement the MLE used before its projected Newton step, on the
    same likelihood kernel (one point per call) and search box.
    """

    def negll(x):
        d = min(max(x[0], arfima._D_BOUNDS[0]), arfima._D_BOUNDS[1])
        phi = min(max(x[1], arfima._PHI_BOUNDS[0]), arfima._PHI_BOUNDS[1])
        ll, _ = arfima._profile_loglik_batch(y[None, :, None], np.array([[d]]), np.array([[phi]]))
        return -ll[0, 0, 0]

    res = minimize(
        negll,
        x0=[d0, phi0],
        method="Nelder-Mead",
        bounds=[arfima._D_BOUNDS, arfima._PHI_BOUNDS],
        options={"xatol": tol, "fatol": 1e-10, "maxiter": 400},
    )
    return -res.fun
