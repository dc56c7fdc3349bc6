"""The seeded query stream of the ``consequence`` workload, as formula text.

Formulas use the built-in signature with variables x0..x2 and depth at most 4
(a variable has depth 1); each query has at most two premises. Short formulas
recur by chance, so part of the stream repeats earlier queries.
"""

from __future__ import annotations

import random

import oracle

CONNECTIVES = (("neg", 1), ("imp", 2), ("and", 2), ("or", 2), ("iff", 2))
KINDS = ("ipc", "cpc", "glivenko")
NUM_VARS = 3
MAX_DEPTH = 4
MAX_PREMISES = 2
LEAF_CHANCE = 0.25


def _formula(rng: random.Random, depth: int) -> str:
    if depth <= 1 or rng.random() < LEAF_CHANCE:
        return f"x{rng.randrange(NUM_VARS)}"
    name, arity = CONNECTIVES[rng.randrange(len(CONNECTIVES))]
    return f"{name}({','.join(_formula(rng, depth - 1) for _ in range(arity))})"


def stream(seed: int, length: int) -> list[tuple[str, list[str], str]]:
    """``length`` queries ``(kind, premises, conclusion)``; kind is ``ipc``,
    ``cpc`` or ``glivenko`` with equal chance."""
    rng = random.Random(seed)
    out = []
    for _ in range(length):
        kind = KINDS[rng.randrange(len(KINDS))]
        gamma = [_formula(rng, MAX_DEPTH) for _ in range(rng.randrange(MAX_PREMISES + 1))]
        out.append((kind, gamma, _formula(rng, MAX_DEPTH)))
    return out


def known_answers(queries) -> list[bool | None]:
    """Per query, from the oracle: for ``cpc`` whether the two-element
    Boolean matrix validates it; for ``ipc`` whether some Heyting corpus
    matrix refutes it; None for ``glivenko`` (its answer is that the two
    sides agree)."""
    b2 = oracle.chain(2, NUM_VARS)
    heyting = oracle.heyting_corpus(NUM_VARS)
    cache: dict = {}
    out = []
    for kind, gamma, phi in queries:
        key = (kind, tuple(gamma), phi)
        if key not in cache:
            trees = [oracle.parse(g) for g in gamma], oracle.parse(phi)
            if kind == "cpc":
                cache[key] = b2.entails(*trees)
            elif kind == "ipc":
                cache[key] = any(not H.entails(*trees) for H in heyting)
            else:
                cache[key] = None
        out.append(cache[key])
    return out
