"""Deterministic random stream derivation for Monte Carlo work.

Every random draw in the library comes from a counter-based Philox
generator keyed by (master_seed, context, replicate index, role tag).
Streams are independent of scheduling, so experiments produce identical
results for any worker-thread count, and any single replicate can be
regenerated in isolation.
"""

from __future__ import annotations

from numpy.random import Generator, Philox, SeedSequence

from .errors import InputError

# Role tags, fixed for the lifetime of the on-disk format.
ROLES = {"design": 0, "noise": 1, "signal": 2, "fold": 3, "seq": 4}


def stream(master_seed: int, rep: int, role: str, ctx: int = 0) -> Generator:
    """Generator for one (replicate, role) pair.

    ctx distinguishes outer sweep points (e.g. aspect-ratio index) so that
    sweeps do not share streams across settings.
    """
    if role not in ROLES:
        raise InputError(f"unknown stream role {role!r}; known: {sorted(ROLES)}")
    if rep < 0 or ctx < 0:
        raise InputError("rep and ctx must be nonnegative")
    ss = SeedSequence(entropy=int(master_seed), spawn_key=(ctx, rep, ROLES[role]))
    return Generator(Philox(ss))


def as_rng(seed, role: str) -> Generator:
    """seed itself if it is a Generator, else the stream (int(seed), rep 0, role)."""
    if isinstance(seed, Generator):
        return seed
    return stream(int(seed), 0, role)
