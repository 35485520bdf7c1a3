"""Library-level oracle calls of the exact-oracles workload.

    python3 perfbench/oracles.py OUT

On the fair-coin chain (values +-1, unit roof) this computes two
Fourier-inversion point masses with fourier_lclt in LatticeExact mode, for
d = 1 and d = 2, and the quadratic coefficient of the leading-eigenvalue
expansion with expansion_fit, and writes them to OUT as JSON.  The
benchmark compares them with the binomial masses and with m = 1/2.
"""

import json
import sys

import numpy as np

from lcltflow.spectral import (EigenCurve, TwistedOperatorModel,
                               expansion_fit, fourier_lclt)
from lcltflow.systems import MarkovShiftBase

D1_STEPS = 400
D2_STEPS = 1


def coin_chain():
    f = np.zeros((2, 2, 2))
    f[:, 0, 0] = -1.0
    f[:, 1, 0] = 1.0
    f[:, :, 1] = 1.0
    return MarkovShiftBase([[0.5, 0.5], [0.5, 0.5]], f)


def main(out):
    coin = coin_chain()
    phi_only = TwistedOperatorModel(coin, components=(0,))
    both = TwistedOperatorModel(coin)
    _drift, m, _order = expansion_fit(EigenCurve(phi_only))
    result = {
        # P(S_400 = 0)
        "fourier_d1": fourier_lclt(phi_only, D1_STEPS, [0.0]),
        # P(S_1 = 1, T_1 = 1): v is taken relative to n * nu_f = (0, 1)
        "fourier_d2": fourier_lclt(both, D2_STEPS, [1.0, 0.0]),
        "coin_m": float(m[0, 0]),
    }
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
