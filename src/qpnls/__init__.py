"""Quasi-periodic localized states of the nonlinear lattice Schrodinger
equation: lattice geometry, Diophantine estimates, linearized operators,
the Newton construction, and time-domain verification."""

from .lattice import Region, SectionShape, enumerate_elementary_regions, \
    index_region, region_section
from .potential import ModelParams, TrigPoly, base_frequencies, mu, \
    reference_params, validate
from .diophantine import DiophParams, WronskianInput, bgg_check, \
    check_dc_conditions, clustering_count, estimate_excluded_measure, \
    km_bound, wronskian_det
from .linop import GreenReport, LDEParams, assemble_H, green, schur_green, \
    sigma_sweep
from .solver import FourierState, Solution, evaluate_F, initial_state, \
    newton_step, run_solver, solve_Q, symmetrize
from .evolve import integrate, reconstruct, verify

__version__ = "0.1.0"
