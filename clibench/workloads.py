"""Seeded request lists, one per workload.

Each workload is a fixed design whose cost does not depend on the seed: the
seed draws the continuous parameters that leave the work unchanged (the
exponent s, the zeta convention) and the order of the requests.  Two seeds
therefore run the same mix of work, so their medians are comparable.

``COLD`` lists, per workload, the fixed requests of the cold pass that set-up
time covers: one request of every kind the workload sends, with the zeta
kind at the workload's top precision so the Bernoulli fill is included.

Stdlib only: the set-up child imports this module before it times the
package import.
"""

from __future__ import annotations

import random

WORKLOADS = ("direct_sums", "precise_torsion", "exact_spectrum", "identity_suite")

Argv = tuple[str, ...]


def _fmt(s: float) -> str:
    return f"{s:.6f}"


# A design with few distinct costs has an odd number of requests, so the
# median of whole rounds falls inside one request's copies rather than
# between two of them.

def direct_sums(rng: random.Random) -> list[Argv]:
    # 2s > n+1 keeps the defining series convergent; s does not change the
    # kernel work, N and n do.  n = 4 has the most pair families, so it gets
    # three truncations instead of six to keep a round short.
    grid = [(n, N) for n in (1, 2, 3) for N in (150, 200, 250, 300, 350, 400)]
    grid += [(4, N) for N in (150, 250, 400)]
    reqs = []
    for n, N in grid:
        s = (n + 1) / 2 + rng.uniform(0.25, 2.0)
        reqs.append(("kappa", "--n", str(n), "--s", _fmt(s),
                     "--mode", "direct", "--max", str(N)))
    return reqs


def _signed_s(rng: random.Random, stratum: int, negative: bool) -> float:
    # The zeta engine's cost grows with |s| (guard bits for s < 0, Bernoulli
    # terms), so |s| comes from a fixed stratum in 0.3..4.05 plus a seeded
    # jitter below 0.15; 2s stays 0.1 or more away from the pole at 1.
    s = 0.3 + 0.9 * (stratum % 5) + rng.uniform(0.0, 0.15)
    return -s if negative else s


def precise_torsion(rng: random.Random) -> list[Argv]:
    reqs = []
    precs = (256, 512, 1024, 2048)
    for n in range(1, 7):
        for idx, prec in enumerate(precs):
            conv = rng.choice(("kernel-included", "kernel-excluded"))
            reqs.append(("torsion", "--n", str(n), "--prec", str(prec),
                         "--zeta-convention", conv))
            negative = (n + idx) % 2 == 0
            if prec < 2048 or n <= 3:
                # One zeta call at 2048 bits costs as much as a whole
                # torsion report; n = 1..3 still covers both signs of s.
                reqs.append(("kappa", "--n", str(n), "--s",
                             _fmt(_signed_s(rng, n + idx, negative)),
                             "--mode", "closed", "--prec", str(prec)))
            if prec < 2048:
                # The reduced route calls zeta twice; at 2048 bits that
                # would double the run length for no new code path.
                reqs.append(("kappa", "--n", str(n), "--s",
                             _fmt(_signed_s(rng, n + 2 * idx + 1, not negative)),
                             "--mode", "reduced", "--prec", str(prec)))
    return reqs


def exact_spectrum(rng: random.Random) -> list[Argv]:
    reqs = []
    for n in (1, 2, 3):
        for degree in range(2 * n + 2):
            for fmt in ("json", "csv"):
                for N in (10, 17, 25):
                    reqs.append(("spectrum", "--n", str(n), "--degree",
                                 str(degree), "--max", str(N),
                                 "--format", fmt))
    return reqs


def identity_suite(rng: random.Random) -> list[Argv]:
    bounds = [(n, bound) for n in (2, 3, 4) for bound in (10, 20)] + [(3, 15)]
    return [("verify", "--n", str(n), "--max", str(bound)) for n, bound in bounds]


_BUILDERS = {
    "direct_sums": direct_sums,
    "precise_torsion": precise_torsion,
    "exact_spectrum": exact_spectrum,
    "identity_suite": identity_suite,
}

COLD: dict[str, list[Argv]] = {
    "direct_sums": [
        ("kappa", "--n", "2", "--s", "2.0", "--mode", "direct", "--max", "150"),
    ],
    # mpmath fills its constants once per precision, so every precision of
    # the workload is a kind of its own.
    "precise_torsion": [
        ("torsion", "--n", "1", "--prec", "2048"),
        ("torsion", "--n", "1", "--prec", "1024"),
        ("torsion", "--n", "1", "--prec", "512"),
        ("torsion", "--n", "1", "--prec", "256"),
        ("kappa", "--n", "1", "--s", "2.3", "--mode", "closed", "--prec", "256"),
        ("kappa", "--n", "1", "--s", "-1.3", "--mode", "reduced", "--prec", "256"),
    ],
    "exact_spectrum": [
        ("spectrum", "--n", "1", "--degree", "0", "--max", "10"),
        ("spectrum", "--n", "1", "--degree", "1", "--max", "10", "--format", "csv"),
    ],
    "identity_suite": [
        ("verify", "--n", "2", "--max", "10"),
    ],
}


def build(workload: str, seed: int) -> list[Argv]:
    """The round list of ``workload`` for ``seed``, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = _BUILDERS[workload](rng)
    rng.shuffle(reqs)
    return reqs
