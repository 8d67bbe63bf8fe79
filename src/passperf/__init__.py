"""Analytical and Monte Carlo performance analysis of two-user downlink
pinching-antenna systems under per-waveguide (WDMA) and power-domain
(NOMA) access."""

from .config import (
    ConfigError,
    SystemConfig,
    derive_constants,
    load_config,
    power_w_to_snr_db,
    snr_db_to_power_w,
)
from .montecarlo import Placement, mc_cell_estimates, sample_placements, sinr
from .noma import (
    noma_outage_far,
    noma_outage_near,
    noma_rate_far,
    noma_rate_far_ceiling,
    noma_rate_near,
    noma_zero_outage_thresholds,
)
from .quadrature import IntegrationError, chebyshev_rule
from .sweep import (
    SweepSpec,
    find_crossover,
    omega_two,
    read_csv,
    run_sweep,
    snr_grid,
    to_csv_text,
    validate,
    write_csv,
)
from .wdma import wdma_avg_rate, wdma_outage, wdma_outage_floor, wdma_rate_ceiling

__version__ = "0.1.0"
