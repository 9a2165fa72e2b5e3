"""Locally recoverable erasure codes with helper-error detection.

Construct Reed-Solomon and piecewise-RS codes, certify their locality and
distance parameters exhaustively, repair erasures from small helper sets
while detecting helper corruption, and measure miscorrection rates in a
seeded storage fault-injection simulator.
"""

from .galois import (CountingField, DivisionByZeroError, Field,
                     FieldTooLargeError, NotIrreducibleError, NotPrimeError)
from .codeops import (BoundsReport, BoundStatus, Certificate, LinearCode,
                      LocalityReport, certify, check_bounds, code_from_rows,
                      dual, dual_ghw, ghw, is_edr_set, is_recovery_set,
                      min_distance, puncture, shorten, t_locality)
from .rscodes import (Codeword, LrcRsSpec, RsSpec, encode, interpolate,
                      lrcrs_make, rs_make, suggest_p_poly)
from .localrepair import (PlanCache, RecoveryPlan, RepairOutcome, detect,
                          mult_count, plan_for, plan_linear, plan_lrcrs,
                          plan_rs, recover, recovery_weight, repair)
from .storagesim import (Bernoulli, ClusterConfig, ExactErrors, SimReport,
                         compare_policies, emit, ingest, run_sim)
from .descriptor import CodeBundle, DescriptorError, build_code, descriptor_digest

__version__ = "0.1.0"
