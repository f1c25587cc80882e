"""Assemble the linearized operator on a region, invert it, and sweep
the spectral parameter to classify good and bad regions.
"""

import numpy as np

from qpnls.lattice import Region, frozen_mode_sites
from qpnls.linop import (assemble_H, green, lde_region_family, schur_green,
                         sigma_sweep)
from qpnls.potential import base_frequencies, reference_params


def main():
    p = reference_params()
    om = base_frequencies(p)

    op = assemble_H(p, om, Region.cube(2, 3), sigma=0.8)
    G, rep = green(op)
    print(f"operator on a cube of side 7: {op.m} sites")
    print(f"  inverse norm {rep.norm:.3e} (budget {rep.norm_budget:.3e})")
    print(f"  classified {'good' if rep.good else 'bad'} "
          f"(target decay rate {rep.gamma_target})")

    resonant = [op.indexing.sites[int(np.argmin(np.abs(np.diag(op.matrix))))]]
    G2 = schur_green(op, resonant)
    print(f"  Schur-route inverse agrees to {np.max(np.abs(G - G2)):.2e}")

    family = lde_region_family(p, 2, n_range=2)
    stats = sigma_sweep(p, om, family, np.linspace(-2, 2, 81),
                        exclude=frozen_mode_sites(p.sites))
    print(f"\nsweep over 81 spectral values, {len(family)} regions:")
    print(f"  bad fraction {stats.bad_fraction:.3f}, "
          f"bad intervals {len(stats.bad_intervals)}")


if __name__ == "__main__":
    main()
