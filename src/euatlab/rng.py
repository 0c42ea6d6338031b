"""Seedable random streams.

All randomness in the package flows from a single 64-bit root seed through
named substreams (``data``, ``init-model``, ``sgd-shuffle``, ``mc-pass``
and ``dropout-mask``, ``gaussian-corrupt``, ...) so that individual
components can be re-seeded or varied independently.

The generator is numpy's Philox counter-based bit generator; substream keys
are derived by hashing ``root_seed`` together with the stream name, which
keeps derivation order-independent and documented enough to be reproduced
outside Python.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derive_seeds", "generator", "philox_state", "substream"]

_SEED_MASK = (1 << 64) - 1


def derive_seed(root_seed: int, *names) -> int:
    """Derive a 64-bit child seed from a root seed and a path of names.

    The path elements are joined with ``/`` and hashed (SHA-256) together
    with the root seed; the first 8 bytes of the digest form the child seed.
    """
    path = "/".join(str(n) for n in names)
    digest = hashlib.sha256(f"{int(root_seed) & _SEED_MASK}:{path}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(root_seed: int, name, count: int, leaf) -> list[int]:
    """``[derive_seed(derive_seed(root_seed, name, i), leaf) for i in
    range(count)]``, hashing the text ``"{root_seed}:{name}/"`` that the
    inner paths share once and copying its SHA-256 state for each ``i``."""
    prefix = hashlib.sha256(f"{int(root_seed) & _SEED_MASK}:{name}/".encode())
    seeds = []
    for i in range(count):
        h = prefix.copy()
        h.update(str(i).encode())
        child = int.from_bytes(h.digest()[:8], "big")
        digest = hashlib.sha256(f"{child}:{leaf}".encode()).digest()
        seeds.append(int.from_bytes(digest[:8], "big"))
    return seeds


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))


def philox_state(seed: int) -> dict:
    """The ``bit_generator.state`` of a fresh ``Philox(key=seed)``: counter
    zero, key ``[seed, 0]``, empty buffer.

    Assigning it to any Philox-backed generator restarts that generator on
    the stream ``generator(seed)`` draws, at a fraction of the cost of
    building a new one.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) & _SEED_MASK, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def substream(root_seed: int, *names) -> np.random.Generator:
    """Generator for the named substream of ``root_seed``."""
    return generator(derive_seed(root_seed, *names))
