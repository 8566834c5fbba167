"""Fixture: R3 metric-name violations (an undeclared and a dynamic key)."""


def count(registry, stats) -> None:
    registry.histogram("totally_unregistered_histogram")
    registry.histogram(f"derived_{stats}")
