"""Metric names referenced far from their registration (REP001 fixture)."""

GOOD = "repro_good_total"
GHOST = "repro_ghost_total"
QUIET = "repro_unlisted_total"  # repro: noqa[REP009]


def lookup(registry) -> object:
    return registry.get("repro_good_total")
