"""Diophantine machinery: separation checks, Wronskian determinants,
sublevel measure bounds, and Monte Carlo exclusion estimates.
"""

import numpy as np

from qpnls.diophantine import (DiophParams, WronskianInput,
                               check_dc_conditions,
                               estimate_excluded_measure, km_bound,
                               wronskian_det)
from qpnls.potential import TrigPoly, reference_params


def main():
    p = reference_params()
    # threshold (eps + delta)^3 instead of the asymptotic 1/(8b) exponent,
    # which only bites for astronomically small couplings
    rep = check_dc_conditions(p, DiophParams(L=6, threshold_exp=3.0))
    print("separation conditions at the reference parameters:")
    for cond in ("i", "ii", "iii", "iv"):
        hits = rep.by_condition(cond)
        status = "ok" if not hits else f"{len(hits)} violations"
        print(f"  ({cond}): {status}")
    print(f"  indeterminate rows (|value| < 1e-13): {len(rep.indeterminate)}")
    print("  thresholds:", ", ".join(
        f"{name}={value:g}" for name, value in sorted(rep.thresholds.items())))
    print(f"  overall: {'pass' if rep.passed else 'fail'}")

    inp = WronskianInput(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.11,),
                         beta=(0.37,), q=(0.21,), sites=((0,), (1,), (2,)))
    direct, factored = wronskian_det(inp)
    print(f"\nWronskian determinant, direct vs factored: "
          f"{direct:.6e} vs {factored:.6e}")

    for k in (1, 2, 3):
        print(f"sublevel bound for a degree-{k} monomial at eps=1e-4: "
              f"{km_bound(k, 1.0, 1e-4):.4e}")

    for eta in (1e-1, 1e-2):
        frac, (lo, hi) = estimate_excluded_measure(
            "potential_sublevel", p, 4000, 7, eta=eta)
        exact = 2.0 / np.pi * np.arcsin(eta)
        print(f"excluded phase measure at eta={eta:g}: "
              f"{frac:.4f} in [{lo:.4f}, {hi:.4f}], exact {exact:.4f}")


if __name__ == "__main__":
    main()
