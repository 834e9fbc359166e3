#!/usr/bin/env python3
"""Return to equilibrium on finite chains, watched through the FCS.

An excited qubit couples (lam = 0.2) to the edge of a transverse-field
chain whose single-flip cost sits on resonance with the qubit gap.  As the
joint system relaxes, the reservoir FCS characteristic function approaches
the decoupled long-time law

    chi(gamma) = tr(rho_thermal e^{i gamma H_S}) tr(rho_0 e^{-i gamma H_S})

A finite chain cannot mix exactly (the evolution is quasi-periodic), so the
sup-over-gamma distance never reaches zero and eventually recurs; but the
plateau improves on the t = 0 baseline, recurrences arrive later on longer
chains, and the ergodic-average mixing diagnostic shrinks with chain size.

Six sites keep the demo quick; the acceptance suite runs the same experiment
against hard thresholds.
"""

import numpy as np

from fcslab import default_gamma_grid, fcs_at, mixing_diagnostic, reservoir_fcs, system_char_limit
from fcslab.scenarios import chain_scenario

for n in (3, 5):
    scn = chain_scenario(n, lam=0.2, beta=1.0)
    gammas = default_gamma_grid(scn)
    limit = np.array([system_char_limit(scn, g) for g in gammas])

    def distance(t):
        res = reservoir_fcs(fcs_at(scn, t), gamma_grid=gammas)
        vals = np.array([v for _, v in res.char_samples])
        return float(np.max(np.abs(vals - limit)))

    print(f"chain n={n} (reservoir dim {scn.dim_res}):")
    print(f"  baseline distance at t=0: {distance(0.0):.4f}")
    ts = np.linspace(2.0, 30.0, 15)
    row = "  ".join(f"{distance(t):.3f}" for t in ts)
    print(f"  t = 2..30:  {row}")
    rep = mixing_diagnostic(scn, (0.0, 40.0), 21)
    print(f"  ergodic-average distance from rank-one projector: {rep.distance:.4f}")
    print()
