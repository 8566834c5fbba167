"""Fixture: R3 metric-name violations (undeclared histogram and callback)."""


def count(registry, stats) -> None:
    registry.histogram("totally_unregistered_histogram")
    registry.register_callback(
        "totally_unregistered_callback", lambda: stats.merges
    )
    # Derived (f-string) callback names are out of scope.
    registry.register_callback(f"derived_{stats}", lambda: 0)
