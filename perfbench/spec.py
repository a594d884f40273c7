"""Metric definitions; BENCHMARK.json lists the same names, units and directions.

END_TO_END metrics are printed with tracing off and gated by their bound
(the share of the parent's median by which they may worsen).  QUALITY
metrics are printed in the same table but not gated: cert_excess_log10
changes sign, and the other two exist on some workloads only.  PER_LAYER metrics come from the traced
run; each names the end-to-end metric and workloads it should move.
"""

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("verified_share", "ratio", "higher", 0.15),
)

QUALITY = (
    ("residual_digits", "digits", "higher"),
    ("cert_excess_log10", "log10", "lower"),
    ("upper_gap_rel", "ratio", "lower"),
)

_ZEROS = "op_p50_ms, ops_per_s on high-degree, bound-table; flat on cli-oneshot, oracle-sandwich"
_STAGES = "op_p50_ms on bound-table"
_CERT = "verified_share, cert_excess_log10 on high-degree; must not raise op_p50_ms on bound-table"
_CACHE = "setup_s on every workload; op_p50_ms on cli-oneshot"
_PROCESS = "op_p50_ms, op_p90_ms on cli-oneshot; setup_s everywhere"
_ORACLE = "ops_per_s on oracle-sandwich, guarded by upper_gap_rel and verified_share"

PER_LAYER = (
    # name, unit, better, what it should move
    ("recurrence.eval_one.calls", "count", "lower", _ZEROS),
    ("orthopoly.largest_zero.ms", "ms", "lower", _ZEROS),
    ("orthopoly.kernel_zeros.ms", "ms", "lower", _ZEROS),
    ("levenshtein.validity_interval.ms", "ms", "lower", _ZEROS),
    ("levenshtein.tau_for_cardinality.calls", "count", "lower", _STAGES),
    ("levenshtein.tau_for_cardinality.ms", "ms", "lower", _STAGES),
    ("levenshtein.solve_separation.self_ms", "ms", "lower", _STAGES),
    ("orthopoly.eval_q.calls", "count", "lower", _STAGES),
    ("levenshtein.quadrature_rule.self_ms", "ms", "lower", _STAGES),
    ("pmspace.gauss_rule.calls", "count", "lower", _STAGES),
    ("pmspace.gauss_rule.ms", "ms", "lower", _STAGES),
    ("potentials.check_absolutely_monotone.ms", "ms", "lower", _CERT),
    ("ulb.hermite_certificate.ms", "ms", "lower", _CERT),
    ("ulb.verify_certificate.self_ms", "ms", "lower", _CERT),
    ("orthopoly.expand_in_q.ms", "ms", "lower", _CERT),
    ("ulb.ulb.self_ms", "ms", "lower", _CERT),
    ("ulb.min_q_coefficient", "1", "higher", _CERT),
    ("orthopoly.adjacent_system.hits", "count", "higher", _CACHE),
    ("orthopoly.adjacent_system.misses", "count", "lower", _CACHE),
    ("cli.interpreter_ms", "ms", "lower", _PROCESS),
    ("cli.import_ms", "ms", "lower", _PROCESS),
    ("cli.import_scipy_ms", "ms", "lower", _PROCESS),
    ("cli.compute_ms", "ms", "lower", _PROCESS),
    ("oracle.minimize_sphere.ms", "ms", "lower", _ORACLE),
    ("oracle.exhaustive_hamming.ms", "ms", "lower", _ORACLE),
    ("oracle.descent_steps", "count", "lower", _ORACLE),
    ("oracle.energy_evals", "count", "lower", _ORACLE),
    ("trace.overhead_share", "ratio", "lower", "none: the cost of tracing itself"),
)
