"""Crash, failover and remount tests.

Tests parametrised over :data:`repro.stack.MOUNTABLE` are identified by
the FTL each backend builds — the names the FTL-level tests
(``test_remount``, ``tests/ftl``) use for the same devices.
"""

_FTL_OF = {
    "traditional": "page-mapping",
    "ipa-blockdev": "ipa-ftl",
    "ipa-native": "noftl-ipa",
    "noftl-plain": "noftl-plain",
}


def ftl_id(backend: str) -> str:
    """Test id of a backend: the FTL its stack builds."""
    return _FTL_OF[backend]
