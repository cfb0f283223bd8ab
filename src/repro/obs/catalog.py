"""Metric catalog: every repro_* metric this package may register.

Generated by ``python -m repro.analysis --update-metric-catalog`` — do not edit by hand.

REP001 (metric-catalog) checks every registration site against
this table so sharded registries stay mergeable.  Entries with
``shard_suffix`` accept an optional trailing ``shard`` label.
"""


METRIC_CATALOG = {
    'repro_accuracy_relative_error': {
        "kind": 'histogram',
        "labels": ('query',),
        "shard_suffix": False,
        "help": 'Streaming relative error of answer() vs exact_answer(), per query.',
    },
    'repro_accuracy_samples_total': {
        "kind": 'counter',
        "labels": ('query',),
        "shard_suffix": False,
        "help": 'Accuracy samples taken, per query.',
    },
    'repro_accuracy_sampling_seconds_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Seconds spent computing accuracy samples (estimate + exact).',
    },
    'repro_bound_clamps_total': {
        "kind": 'counter',
        "labels": ('query',),
        "shard_suffix": False,
        "help": (
            'Answers clamped because the point estimate exceeded the guaranteed upper bound, per '
            'query.'
        ),
    },
    'repro_bound_tightness_ratio': {
        "kind": 'gauge',
        "labels": ('query',),
        "shard_suffix": False,
        "help": (
            'Clamped estimate as a fraction of its guaranteed upper bound, per query (1.0 = '
            'estimate at or above the bound).'
        ),
    },
    'repro_estimate_latency_seconds': {
        "kind": 'histogram',
        "labels": (),
        "shard_suffix": False,
        "help": 'Latency of answer() / answers() estimate evaluations.',
    },
    'repro_export_drops_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Snapshot lines dropped after exhausting write retries.',
    },
    'repro_fleet_heartbeat_misses_total': {
        "kind": 'counter',
        "labels": ('shard',),
        "shard_suffix": False,
        "help": 'Heartbeat pings a shard worker failed to answer, by shard.',
    },
    'repro_fleet_restarts_total': {
        "kind": 'counter',
        "labels": ('shard',),
        "shard_suffix": False,
        "help": 'Supervised shard worker restarts, by shard.',
    },
    'repro_fleet_shard_up': {
        "kind": 'gauge',
        "labels": ('shard',),
        "shard_suffix": False,
        "help": 'Shard worker health (1 = serving, 0 = down).',
    },
    'repro_ingest_batched_ops_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Operations that arrived inside batches.',
    },
    'repro_ingest_batches_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Vectorized batch applications (one per same-kind run).',
    },
    'repro_ingest_dead_letters_total': {
        "kind": 'counter',
        "labels": ('relation', 'reason'),
        "shard_suffix": False,
        "help": 'Rows rejected into the dead-letter buffer.',
    },
    'repro_ingest_deletes_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Deletions among the ingested operations.',
    },
    'repro_ingest_ops_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Total operations applied (insertions + deletions, any path).',
    },
    'repro_ingest_per_tuple_ops_total': {
        "kind": 'counter',
        "labels": (),
        "shard_suffix": False,
        "help": 'Operations that went through the per-tuple process path.',
    },
    'repro_observer_faults_total': {
        "kind": 'counter',
        "labels": ('method',),
        "shard_suffix": False,
        "help": 'Observer exceptions absorbed by fault isolation, per method.',
    },
    'repro_observer_ops_total': {
        "kind": 'counter',
        "labels": ('method',),
        "shard_suffix": True,
        "help": 'Operations seen by observers, per stats key.',
    },
    'repro_observer_seconds_total': {
        "kind": 'counter',
        "labels": ('method',),
        "shard_suffix": True,
        "help": 'Seconds spent inside observer updates, per stats key.',
    },
    'repro_otel_export_drops_total': {
        "kind": 'counter',
        "labels": ('signal',),
        "shard_suffix": False,
        "help": 'OTLP payloads dropped after exhausting export retries, by signal.',
    },
    'repro_otel_export_retries_total': {
        "kind": 'counter',
        "labels": ('signal',),
        "shard_suffix": False,
        "help": 'OTLP export attempts that failed and were retried, by signal.',
    },
    'repro_otel_exports_total': {
        "kind": 'counter',
        "labels": ('signal',),
        "shard_suffix": False,
        "help": 'OTLP payloads exported successfully, by signal.',
    },
    'repro_queries_degraded': {
        "kind": 'gauge',
        "labels": (),
        "shard_suffix": False,
        "help": 'Registered queries currently degraded by a quarantined observer.',
    },
    'repro_query_estimate_seconds_total': {
        "kind": 'counter',
        "labels": ('query',),
        "shard_suffix": True,
        "help": 'Seconds spent evaluating estimates, per query.',
    },
    'repro_query_estimates_total': {
        "kind": 'counter',
        "labels": ('query',),
        "shard_suffix": True,
        "help": 'Estimate evaluations served, per query.',
    },
    'repro_relation_ops_total': {
        "kind": 'counter',
        "labels": ('relation',),
        "shard_suffix": True,
        "help": 'Operations applied, per relation.',
    },
    'repro_retries_total': {
        "kind": 'counter',
        "labels": ('operation',),
        "shard_suffix": False,
        "help": 'I/O retries performed, by logical operation.',
    },
    'repro_serve_clients': {
        "kind": 'gauge',
        "labels": (),
        "shard_suffix": False,
        "help": 'Serve-daemon client connections currently open.',
    },
    'repro_serve_requests_total': {
        "kind": 'counter',
        "labels": ('op',),
        "shard_suffix": False,
        "help": 'Serve-daemon requests handled, by operation.',
    },
}
