"""Stand-in for the generated metric catalog (REP001 fixture)."""

METRIC_CATALOG = {
    "repro_good_total": {
        "kind": "counter",
        "labels": [],
        "shard_suffix": False,
        "help": "a catalogued metric",
    },
}
