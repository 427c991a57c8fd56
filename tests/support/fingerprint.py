"""The scalar dSBF fingerprint, as ``src/repro/frequent/dsbf.py`` had it:
the oracle :func:`repro.kernels.fingerprint32` is held to key by key."""

from repro.common.hashing import splitmix64

FP_BITS = 32  # fingerprint width; keys are 1 word, fingerprints half


def fingerprint(key: int, salt: int) -> int:
    """Truncated splitmix64: deliberately small so collisions occur."""
    return splitmix64(int(key) ^ salt) & ((1 << FP_BITS) - 1)
