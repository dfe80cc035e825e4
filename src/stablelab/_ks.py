"""Two-sided one-sample Kolmogorov-Smirnov p-value for n >= 10000
points, with the bits of ``scipy.stats.kstest(x, cdf).pvalue`` outside
the Durbin window below (within 1e-12 inside it) and without importing
``scipy.stats``.

The statistic D is computed as ``scipy.stats._stats_py.ks_1samp``
computes it.  ``_kolmogn_sf`` is ``scipy.stats._ksstats._kolmogn(n, x,
cdf=False)`` of scipy 1.17.1 cut to n >= 10000, where its branches after
Simard and L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov
distribution" (J. Stat. Softw. 39(11), 2011), give four distinct doubles:
- 0 for n x^2 >= 370, which covers x >= 0.5 and the high Ruben-Gambino
  end, since there 2 * smirnov(n, x) and 2 (1 - x)^n underflow;
- 1 for n x <= 1, the low Ruben-Gambino end, whose 1 - n!/n^n (2nx - 1)^n
  rounds to 1 for every n > 140;
- 2 * smirnov(n, x) for 2.2 <= n x^2 < 370;
- below n x^2 = 2.2, 1 - CDF, the CDF from the approximation of Pelz and
  Good (J. R. Stat. Soc. B 38(2), 1976), ported operation for operation.

scipy takes the CDF from Durbin's matrix in the form of Marsaglia, Tsang
and Wang (J. Stat. Softw. 8(18), 2003) where n <= 100000 and
n x^1.5 <= 1.4, the Durbin window (x < 0.0027 at n = 10000, reached with
probability 4.8e-7).  There the p-value is at least 1 - 5e-7 on both
routes, and Pelz-Good differs from scipy by at most 5.6e-13 at n = 10000,
5e-14 at n = 20000 and 0 at n = 100000.  Everywhere else the bits are
scipy's.

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

_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6


def kstest_pvalue(x, cdf) -> float:
    """p-value of the two-sided KS test of the 1-D sample ``x`` (at least
    10000 points) against the continuous CDF ``cdf``."""
    x = np.sort(x)
    n = x.shape[-1]
    if n < 10000:
        raise ParameterError(f"the KS p-value needs n >= 10000, not {n}")
    cdfvals = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    if np.isnan(d):
        return float("nan")
    return float(_kolmogn_sf(n, d))


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for n >= 10000."""
    t = n * x
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if t <= 1.0:
        return 1.0
    if nxsquared >= 2.2:
        return np.clip(2 * special.smirnov(n, x), 0.0, 1.0)
    return np.clip(1.0 - _kolmogn_pelzgood_cdf(n, x), 0.0, 1.0)


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
