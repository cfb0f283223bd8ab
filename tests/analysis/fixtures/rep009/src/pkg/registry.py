"""The registration site that keeps the catalog entry live (REP001 fixture)."""


def setup(registry) -> None:
    registry.counter("repro_good_total", "a catalogued metric")
