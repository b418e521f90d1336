"""Seeded schedules: the operations one pass of each workload performs.

A plan is plain JSON.  The same seed gives the same plan; every run repeats
whole passes of it, so every run times the same mix of operations.
"""

from __future__ import annotations

import random

import spec

# algebra: shares of one pass
REDUCE_OPS = 1800  # deletion-heavy random words, ranks 3-10, lengths 4-48
MULTIPLY_OPS = 240  # products of two long canonical words, ranks 6-9
CHECK_OPS = 960  # half long canonical words, half one-letter edits, ranks 7-10
OPERANDS_PER_RANK = 24
TRIPLES = 40

# census: (kind, rank, copies per pass).  The copies put the median on
# count(6) and the 90th percentile on longest_census(6).  Rank 7 is left
# out: a single count(7) takes about 12 s.
CENSUS_OPS = (("count", 5, 2), ("longest", 5, 1), ("count", 6, 3), ("longest", 6, 2))

# certify: (rank, cap, copies per pass).  The first four pairs fire the
# retry at cap + 2, the last three do not.  (4, 8) is left out: one call
# takes 33-43 s.
CERTIFY_OPS = ((3, 4, 1), (3, 5, 1), (4, 4, 1), (5, 4, 1), (2, 7, 6), (5, 3, 2), (6, 3, 2))

CLI_COUNT_RANK = 6
CLI_MAX_N = 6
CLI_VERIFY_MAX_N = 5
CLI_SUITES = ("bounds", "identities", "structure")


def _text(word) -> str:
    return " ".join(map(str, word))


def algebra(rng: random.Random) -> dict:
    operands = [
        [n, spec.long_canonical(rng, n)] for n in range(6, 10) for _ in range(OPERANDS_PER_RANK)
    ]
    by_rank: dict[int, list[int]] = {}
    for i, (n, _) in enumerate(operands):
        by_rank.setdefault(n, []).append(i)
    # ranks and lengths are spread evenly, so that seeds differ only in the
    # letters; only the words are random
    ops = []
    for k in range(REDUCE_OPS):
        n, length = 3 + k % 8, 4 + (k // 8) % 45
        ops.append({"kind": "reduce", "rank": n, "word": spec.random_word(rng, n, length)})
    for k in range(MULTIPLY_OPS):
        pool = by_rank[6 + k % 4]
        ops.append({"kind": "multiply", "left": rng.choice(pool), "right": rng.choice(pool)})
    for k in range(CHECK_OPS):
        n = 7 + (k // 2) % 4
        word = spec.long_canonical(rng, n)
        if k % 2:
            word = spec.one_letter_edit(rng, word, n)
        ops.append({"kind": "check", "rank": n, "word": word})
    rng.shuffle(ops)
    triples = []
    for _ in range(TRIPLES):
        pool = by_rank[rng.randint(6, 9)]
        triples.append([rng.choice(pool) for _ in range(3)])
    return {"ops": ops, "operands": operands, "triples": triples}


def census(rng: random.Random) -> dict:
    ops = [{"kind": kind, "rank": n} for kind, n, copies in CENSUS_OPS for _ in range(copies)]
    rng.shuffle(ops)
    return {"ops": ops}


def certify(rng: random.Random) -> dict:
    ops = [{"kind": "certify", "rank": n, "cap": cap} for n, cap, copies in CERTIFY_OPS for _ in range(copies)]
    rng.shuffle(ops)
    return {"ops": ops}


def _non_canonical(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        word = spec.one_letter_edit(rng, spec.long_canonical(rng, n), n)
        if not spec.is_canonical(word):
            return word


def cli(rng: random.Random) -> dict:
    n = rng.randint(5, 7)
    word = spec.random_word(rng, n, rng.randint(8, 20))
    canonical = spec.long_canonical(rng, n)
    broken = _non_canonical(rng, n)
    left = spec.sample_canonical(rng, n, rng.randint(4, spec.length_bound(n)))
    right = spec.sample_canonical(rng, n, rng.randint(4, spec.length_bound(n)))
    rank = ["--rank", str(n)]
    ops = [
        {"kind": "reduce", "rank": n, "word": word, "argv": ["reduce", _text(word), *rank]},
        {"kind": "check", "rank": n, "word": canonical, "argv": ["check", _text(canonical), *rank]},
        {"kind": "check", "rank": n, "word": broken, "argv": ["check", _text(broken), *rank]},
        {"kind": "mul", "rank": n, "left": left, "right": right, "argv": ["mul", _text(left), _text(right), *rank]},
        {"kind": "count", "rank": CLI_COUNT_RANK, "argv": ["count", "--rank", str(CLI_COUNT_RANK)]},
        {"kind": "table", "max_n": CLI_MAX_N, "argv": ["table", "--max-n", str(CLI_MAX_N)]},
    ]
    ops += [
        {"kind": "verify", "argv": ["verify", "--suite", suite, "--max-n", str(CLI_VERIFY_MAX_N)]}
        for suite in CLI_SUITES
    ]
    rng.shuffle(ops)
    return {"ops": ops}


BUILDERS = {"algebra": algebra, "census": census, "certify": certify, "cli": cli}


def build(workload: str, seed: int) -> dict:
    """The plan of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    plan = BUILDERS[workload](rng)
    plan["workload"], plan["seed"] = workload, seed
    return plan
