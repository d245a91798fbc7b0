"""Fractional difference filters: coefficients, filtering, exact inversion.

The operator (1-z)**d acts on a finite sample through its truncated
binomial expansion. Because the truncated filter is lower triangular with
a unit diagonal, filtering by -d afterwards restores the series exactly.
"""

import numpy as np

import longmem as lm

# Coefficients follow the recursion a_j = a_{j-1} (j-1-d)/j.
for d in (0.0, 0.5, 1.0, -0.3):
    print(f"d={d:+.1f}: a_0..a_5 =", np.round(lm.frac_diff_coeffs(d, 6), 4))

rng = np.random.default_rng(0)
y = rng.standard_normal(1000)

# d = 1 is plain first differencing (with the first value kept).
w = lm.apply_frac_filter(y, 1.0)
print("\nd=1 equals first differences:", np.allclose(w[1:], np.diff(y)))

# Forward then inverse filter round-trips to machine precision.
for d in (-0.4, 0.2, 0.49, 1.0):
    back = lm.apply_frac_filter(lm.apply_frac_filter(y, d), -d)
    print(f"round-trip error at d={d:+.2f}: {np.max(np.abs(back - y)):.2e}")

# Filtering long-memory data by its memory parameter leaves a
# short-memory series: compare lag-1 autocorrelations.
params = lm.ArfimaParams(d=0.4, phi=0.0)
x = lm.simulate_gaussian(params, 2000, np.random.default_rng(1))
wx = lm.apply_frac_filter(x, 0.4)


def lag1(v):
    return np.corrcoef(v[:-1], v[1:])[0, 1]


print(f"\nlag-1 autocorrelation: raw {lag1(x):.3f}, filtered {lag1(wx):.3f}")
