"""Exact two-sided one-sample Kolmogorov-Smirnov p-value for more than
140 points, with the bits of ``scipy.stats.kstest(x, cdf).pvalue`` and
without importing ``scipy.stats``.

The statistic D is computed as ``scipy.stats._stats_py.ks_1samp``
computes it.  ``_kolmogn_sf`` is ``scipy.stats._ksstats._kolmogn(n, x,
cdf=False)`` of scipy 1.17.1, ported operation for operation and cut to
its n > 140 branches, which follow Simard and L'Ecuyer, "Computing the
two-sided Kolmogorov-Smirnov distribution" (J. Stat. Softw. 39(11),
2011):
- Ruben-Gambino at both ends, n x <= 1 and n x >= n - 1;
- 2 * smirnov(n, x) for x >= 0.5 and for n x^2 >= 2.2, and 0 for
  n x^2 >= 370;
- below n x^2 = 2.2, 1 - CDF, the CDF from Durbin's matrix in the form of
  Marsaglia, Tsang and Wang (J. Stat. Softw. 8(18), 2003) where
  n <= 100000 and n x^1.5 <= 1.4, else from the approximation of Pelz and
  Good (J. R. Stat. Soc. B 38(2), 1976).

The ported code is under the SciPy license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np
from scipy import special

from .errors import ParameterError

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_{2j}/(2j)/(2j-1) for j = 8, ..., 1, with B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def kstest_pvalue(x, cdf) -> float:
    """p-value of the exact two-sided KS test of the 1-D sample ``x`` (more
    than 140 points) against the continuous CDF ``cdf``."""
    x = np.sort(x)
    n = x.shape[-1]
    if n <= 140:
        raise ParameterError(f"the exact KS p-value needs n > 140, not {n}")
    cdfvals = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    if np.isnan(d):
        return float("nan")
    # scipy hands D over as a 0-d array: its x**1.5 is numpy's vectorised
    # power, which can differ from the scalar one in the last bit (for
    # ~5% of x with numpy 2.4 on an AVX-512 Xeon)
    return float(_kolmogn_sf(n, np.asarray(d)))


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's series, with n*log(n) removed up front
    # against subtractive cancellation
    rn = 1.0/n
    return (np.log(n)/2 - n + _LOG_2PI/2
            + rn * np.polyval(_STIRLING_COEFFS, rn/n))


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for n > 140."""
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x)**n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _clip_prob(2 * special.smirnov(n, x))
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip_prob(2 * special.smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw_cdf(n, x)
    else:
        cdfprob = _kolmogn_pelzgood_cdf(n, x)
    return _clip_prob(1.0 - cdfprob)


def _kolmogn_dmtw_cdf(n, d):
    """Pr(D_n <= d) for 1/n < d < 1 by Durbin's matrix algorithm, MTW form."""
    # Write d = (k-h)/n, where k is positive integer and 0 <= h < 1.
    # Compute the k-th row of (n!/n^n) * H^n for the m*m matrix H, m=(2k-1),
    # scaling intermediate results.
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and last row) of H:
    #  v[j] = (1-h^(j+1)/(j+1)!  (except for v[-1]);  w[j] = 1/(j)!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n; p turns long double at its first rescaling
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip_prob(p)


def _kolmogn_pelzgood_cdf(n, x):
    """Pelz-Good approximation to Pr(D_n <= x) for 0 < x < 1.

    The Li-Chien and Korolyuk expansion
    K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5, z = x sqrt(n),
    with each K transformed by the Jacobi theta functional equation into
    a form suited to small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over the odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sums over all integers k, computed directly:
    # K_2: (pi^2 k^2) q^(k^2);  K_3: (3pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
