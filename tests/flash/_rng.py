"""Forging a PCG64 generator's state, for tests that need a given uniform.

The disturb kernel prefetches uniforms from its generator, so a test that
wants the kernel to see a particular value forces the *generator*, never
the prefetched block.
"""

import numpy as np

#: PCG64's 128-bit LCG multiplier.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def force_next_uniform(
    rng: np.random.Generator, uniform: float, ahead: int = 0
) -> None:
    """Set a PCG64 generator's state so that its next double — or, with
    ``ahead``, the one after ``ahead`` others — is ``uniform``.

    PCG64 steps ``state = state * MULT + inc`` and outputs
    ``rotr64(high ^ low, high >> 58)`` of the new state; a new state with
    ``high == 0`` outputs ``low`` unrotated, and each step is inverted
    with the multiplier's inverse modulo 2**128.
    """
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64"
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    raw = int(uniform * 2**53) << 11
    for _ in range(ahead + 1):
        raw = ((raw - state["state"]["inc"]) * inverse) % 2**128
    state["state"]["state"] = raw
    rng.bit_generator.state = state
