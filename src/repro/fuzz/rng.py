"""Centralized RNG plumbing: every stochastic component of a campaign is
derivable from one seed.

The fuzzer's determinism contract is *global*: a campaign at seed ``S``
must replay bit-for-bit, including every stochastic sub-component it
drives — scenario generation, the campaign's draws, the serving load
schedule, chaos fault schedules.  Handing the same ``np.random.Generator``
around would make the draw sequence depend on call order (which changes
whenever a phase is added or skipped), so instead each component derives
an *independent* generator from ``(seed, label)``:

    rng = spawn(seed, "serve.load.mixed_load")

Two properties make this the right primitive:

- **stability** — a component's stream depends only on its own label, so
  adding a new consumer of randomness (or reordering phases) never
  perturbs anyone else's draws;
- **independence** — labels are hashed (blake2b) into the
  ``SeedSequence`` entropy, so sibling streams are statistically
  uncorrelated even for adjacent seeds.

Used by :mod:`repro.serve.load`, the chaos suites, and every module in
:mod:`repro.fuzz`.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["spawn", "derive_seed"]

#: Domain separator so (seed, label) streams can never collide with a
#: bare ``default_rng(seed)`` stream used elsewhere in the repo.
_DOMAIN = b"pmove.fuzz.rng/1"


def derive_seed(seed: int, label: str) -> int:
    """A stable 64-bit sub-seed for ``label`` under campaign ``seed``.

    Useful when a component wants an *integer* seed (e.g. to store in a
    serialized :class:`~repro.fuzz.scenario.Scenario`) rather than a
    generator.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_DOMAIN)
    h.update(int(seed).to_bytes(16, "little", signed=True))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def spawn(seed: int, label: str) -> np.random.Generator:
    """An independent, label-stable generator under campaign ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(seed, label)))
