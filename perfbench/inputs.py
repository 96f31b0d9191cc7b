"""Seeded inputs of the four workloads, with the answers an independent
oracle expects.

This module never imports hapdisc: it runs in the benchmark's parent
process, so its memory and its scipy import stay out of the worker's
numbers.  Each generator turns a ``random.Random`` into a list of ops,
``{"kind", "args", "key", "expect"}``, that the worker cycles through.

Each list is one pass; the worker runs whole passes.  Inputs are
stratified, so that every pass holds the same mix of periods, verdicts,
pattern lengths and instance sizes whatever the seed: a run measures the
code rather than the luck of one draw.  Every pass has at least 100 ops,
so that ten lie beyond the 90th percentile.
"""

from __future__ import annotations

import math

import oracle


def op(kind, args, key=None, expect=None):
    return {"kind": kind, "args": args, "key": key, "expect": expect}


def _bit_reversed(n_bits):
    return [int(format(k, f"0{n_bits}b")[::-1], 2) for k in range(1 << n_bits)]


# --- blocks: `hapdisc color --json` and `hapdisc cycle --json` -------------

BLOCK_LOG2 = (16, 19)  # period 2*lcm(S) between 2**16 and 2**19
BLOCK_STRATA_BITS = 6  # 64 equal strata of log2(period), taken in bit-reversed order
BLOCK_SETS = 50  # 100 ops: a balanced prefix of the strata
BLOCK_FORCING_EVERY = 5  # one set in five forces, near the share in random draws
# The first set, the same in every run: all odd, so it 2-colors by parity,
# and holding 1, so the solver visits every vertex of its 524170-vertex
# block, within 0.1% of the largest period drawn.  Every run then reaches
# its peak memory with the same op.
BLOCK_PEAK_SET = [1, 5, 23, 43, 53]


def _block_set(rng, lo, hi, forces):
    while True:
        s = sorted(rng.sample(range(1, 65), rng.randint(4, 6)))
        if math.gcd(*s) == 1 and lo <= 2 * math.lcm(*s) < hi:
            if oracle.block_is_bipartite(s) != forces:
                return s


def blocks(rng):
    lo, hi = BLOCK_LOG2
    sets = [(BLOCK_PEAK_SET, False)]
    width = (hi - lo) / 2**BLOCK_STRATA_BITS
    for k in _bit_reversed(BLOCK_STRATA_BITS)[: BLOCK_SETS - 1]:
        forces = len(sets) % BLOCK_FORCING_EVERY == 0
        a, b = 2 ** (lo + k * width), 2 ** (lo + (k + 1) * width)
        sets.append((_block_set(rng, math.ceil(a), math.ceil(b), forces), forces))
    ops = []
    for s, forces in sets:
        csv = ",".join(map(str, s))
        ops.append(op("cli", ["color", "-s", csv, "--json"], s, forces))
        ops.append(op("cli", ["cycle", "-s", csv, "--json"], s, forces))
    return ops


# --- sweep: classify, then the block solver --------------------------------


def sweep(rng, count=3000):
    ops = []
    while len(ops) < count:
        s = sorted(rng.sample(range(1, 25), 3 + len(ops) % 2))
        if math.gcd(*s) == 1 and 2 * math.lcm(*s) <= 2**16:
            ops.append(op("sweep", s, s))
    return ops


# --- search: extremal paths and cycles, then the rule engine ---------------

# Drawn once, with random.Random(2016) and, for the last 120 5-sets,
# random.Random(2017): 5-sets and 6-sets containing 1, the other elements at
# most 40, keeping the 6-sets whose path search took at most 2.5 s.  Fresh
# draws per seed would make the spread of every search metric between runs
# wider than any useful bound: one 6-set search takes 0.05-7 s.  The seed
# instead scales each set by its own odd factor, which leaves every search
# tree unchanged.
SEARCH_PANEL_5 = [
    [1, 7, 18, 30, 37], [1, 6, 10, 32, 33], [1, 10, 11, 15, 22], [1, 12, 17, 30, 33],
    [1, 4, 14, 21, 38], [1, 3, 6, 21, 26], [1, 8, 13, 35, 39], [1, 14, 16, 24, 39],
    [1, 5, 18, 26, 35], [1, 5, 13, 21, 25], [1, 4, 33, 38, 39], [1, 16, 18, 33, 37],
    [1, 2, 5, 6, 39], [1, 14, 33, 36, 38], [1, 9, 10, 24, 26], [1, 8, 11, 15, 27],
    [1, 3, 20, 24, 34], [1, 15, 18, 29, 38], [1, 12, 28, 30, 32], [1, 10, 12, 28, 33],
    [1, 3, 12, 18, 24], [1, 8, 9, 31, 32], [1, 2, 21, 31, 32], [1, 7, 16, 24, 39],
    [1, 17, 21, 25, 26], [1, 3, 6, 16, 26], [1, 24, 28, 32, 35], [1, 6, 26, 27, 30],
    [1, 4, 14, 26, 31], [1, 14, 17, 19, 20], [1, 4, 30, 32, 37], [1, 22, 29, 33, 39],
    [1, 4, 11, 15, 29], [1, 4, 10, 11, 30], [1, 14, 17, 29, 37], [1, 6, 31, 37, 40],
    [1, 2, 7, 30, 34], [1, 21, 24, 25, 34], [1, 11, 15, 29, 36], [1, 24, 26, 32, 36],
    [1, 11, 16, 38, 39], [1, 16, 21, 34, 40], [1, 5, 7, 13, 20], [1, 12, 17, 18, 38],
    [1, 10, 12, 32, 36], [1, 3, 30, 31, 35], [1, 4, 5, 22, 34], [1, 3, 13, 21, 32],
    [1, 12, 14, 17, 33], [1, 14, 15, 21, 39], [1, 5, 26, 36, 39], [1, 7, 23, 24, 39],
    [1, 9, 16, 27, 35], [1, 6, 19, 32, 35], [1, 2, 9, 17, 22], [1, 4, 15, 23, 24],
    [1, 4, 6, 34, 40], [1, 10, 26, 30, 38], [1, 14, 18, 21, 36], [1, 2, 22, 36, 39],
    [1, 14, 22, 23, 30], [1, 6, 15, 31, 34], [1, 9, 17, 36, 40], [1, 2, 17, 27, 35],
    [1, 7, 11, 17, 19], [1, 10, 14, 16, 19], [1, 26, 34, 35, 37], [1, 8, 16, 21, 39],
    [1, 24, 33, 34, 35], [1, 6, 9, 10, 20], [1, 5, 11, 17, 30], [1, 6, 9, 33, 37],
    [1, 14, 15, 28, 36], [1, 19, 24, 25, 28], [1, 6, 21, 32, 35], [1, 9, 11, 16, 22],
    [1, 18, 26, 34, 38], [1, 4, 13, 39, 40], [1, 11, 24, 28, 37], [1, 6, 12, 22, 30],
    [1, 7, 13, 16, 25], [1, 11, 31, 32, 37], [1, 11, 26, 33, 36], [1, 5, 7, 18, 27],
    [1, 14, 21, 32, 34], [1, 20, 26, 30, 37], [1, 7, 8, 9, 22], [1, 4, 17, 18, 19],
    [1, 10, 12, 31, 40], [1, 10, 12, 25, 37], [1, 8, 24, 29, 39], [1, 12, 24, 30, 40],
    [1, 2, 8, 14, 36], [1, 12, 13, 16, 26], [1, 15, 19, 34, 37], [1, 14, 18, 28, 29],
    [1, 4, 22, 28, 33], [1, 7, 19, 22, 29], [1, 4, 5, 15, 32], [1, 5, 6, 25, 35],
    [1, 6, 9, 20, 32], [1, 4, 7, 11, 40], [1, 3, 14, 19, 33], [1, 30, 34, 38, 39],
    [1, 14, 21, 24, 35], [1, 14, 20, 25, 28], [1, 2, 3, 6, 31], [1, 2, 8, 16, 39],
    [1, 2, 12, 21, 26], [1, 5, 14, 32, 39], [1, 11, 15, 26, 35], [1, 20, 35, 36, 40],
    [1, 9, 15, 16, 25], [1, 6, 12, 25, 35], [1, 9, 11, 32, 38], [1, 5, 17, 20, 31],
    [1, 7, 9, 19, 30], [1, 11, 16, 19, 37], [1, 7, 12, 18, 29], [1, 21, 28, 30, 33],
    [1, 2, 11, 32, 39], [1, 4, 12, 28, 38], [1, 3, 8, 33, 39], [1, 17, 23, 25, 29],
    [1, 21, 22, 30, 33], [1, 12, 16, 27, 36], [1, 8, 11, 29, 40], [1, 14, 21, 24, 31],
    [1, 5, 6, 33, 37], [1, 3, 15, 32, 39], [1, 4, 5, 19, 31], [1, 16, 19, 20, 35],
    [1, 14, 20, 25, 37], [1, 3, 10, 15, 22], [1, 20, 28, 36, 37], [1, 3, 12, 34, 35],
    [1, 2, 21, 22, 35], [1, 11, 12, 21, 28], [1, 11, 15, 21, 29], [1, 6, 10, 25, 37],
    [1, 14, 26, 27, 39], [1, 5, 7, 16, 21], [1, 8, 9, 19, 28], [1, 5, 6, 16, 23],
    [1, 3, 11, 18, 38], [1, 11, 14, 26, 30], [1, 7, 23, 38, 40], [1, 15, 21, 25, 36],
    [1, 3, 4, 15, 36], [1, 15, 19, 33, 40], [1, 15, 21, 22, 31], [1, 9, 11, 27, 32],
    [1, 8, 11, 20, 36], [1, 10, 21, 28, 39], [1, 4, 12, 20, 40], [1, 8, 22, 24, 40],
    [1, 4, 20, 21, 28], [1, 10, 13, 19, 40], [1, 2, 5, 23, 35], [1, 2, 13, 36, 38],
    [1, 11, 24, 29, 38], [1, 2, 18, 27, 28], [1, 5, 14, 26, 32], [1, 10, 13, 17, 38],
    [1, 6, 33, 37, 40], [1, 12, 14, 16, 39], [1, 4, 9, 34, 35], [1, 4, 25, 33, 38],
    [1, 6, 18, 30, 37], [1, 3, 4, 18, 27], [1, 9, 16, 26, 35], [1, 8, 16, 30, 31],
    [1, 2, 15, 21, 29], [1, 9, 14, 24, 32], [1, 24, 30, 33, 39], [1, 18, 31, 33, 38],
    [1, 8, 10, 20, 30], [1, 16, 20, 32, 37], [1, 4, 15, 20, 22], [1, 6, 8, 18, 21],
]
SEARCH_PANEL_6 = [
    [1, 8, 23, 24, 25, 34], [1, 12, 16, 17, 24, 38], [1, 4, 25, 26, 27, 36],
    [1, 4, 20, 22, 26, 40], [1, 3, 6, 17, 24, 33], [1, 4, 10, 23, 25, 31],
    [1, 2, 3, 23, 26, 30], [1, 11, 27, 31, 32, 34],
]
# The paper's stored path rows: (skip set, stored length, unsigned pattern,
# stored start).  The 6-set row is not searched, because one 14.5 s op
# cannot be repeated in a run; it still feeds the rule engine and `check`.
PATH_ROWS = [
    ([1, 3], 3, "[1 3 1]", 1),
    ([1, 5, 7], 7, "[1 5 1 7 1 5 1]", 11),
    ([1, 4, 7, 9], 18, "[7 1 4 9 1 4 7 1 9 1 7 1 4 9 1 4 7 1]", 70),
    (
        [1, 2, 9, 35, 37],
        53,
        "[2 35 1 2 1 9 37 1 9 1 2 35 9 2 37 1 2 9 1 35 1 2 37 1 2 35 1 2 37 1 "
        "2 35 1 2 9 1 37 9 2 35 1 9 1 2 37 1 2 1 9 35 1 2 1]",
        15962,
    ),
    (
        [1, 3, 4, 6, 10, 59],
        165,
        "[4 1 3 10 1 3 6 59 1 10 6 3 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 "
        "4 10 59 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 4 6 3 1 59 1 3 1 4 "
        "6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 4 6 59 1 4 6 3 1 4 6 3 1 10 3 1 "
        "4 6 3 1 4 10 1 3 6 3 1 4 6 3 1 4 59 3 6 3 1 4 6 3 1 10 3 1 4 6 3 1 "
        "4 10 1 3 6 3 1 4 3 1 59 1 6 3 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 "
        "1 4 6 3 1 4 1]",
        2848,
    ),
]


def _row_skips(text):
    return [int(tok) for tok in text.strip("[]").split()]


def _signs_from(skips, start):
    """Directions of the walk from ``start``: up from an even multiple of
    the skip, down from an odd one."""
    t, steps = start, []
    for a in skips:
        sign = 1 if (t // a) % 2 == 0 else -1
        steps.append([sign, a])
        t += sign * a
    return steps


def search(rng):
    def scaled(panel):
        out = []
        for s in panel:
            d = rng.randrange(1, 64, 2)
            out.append(op("search", [d * x for x in s]))
        return out

    _, _, long_row, long_start = PATH_ROWS[4]
    heavy = scaled(SEARCH_PANEL_6)
    heavy += [op("search", s, expect=length) for s, length, _, _ in PATH_ROWS[2:4]]
    heavy.append(op("rowscan", {"skips": _row_skips(long_row)}))
    heavy.append(op("rowscan", {"steps": _signs_from(_row_skips(long_row), long_start)}))
    # the heavy ops spread evenly through the light ones
    ops, stride = [], len(SEARCH_PANEL_5) / len(heavy)
    for k, light in enumerate(scaled(SEARCH_PANEL_5)):
        ops.append(light)
        if int((k + 1) / stride) > int(k / stride):
            ops.append(heavy.pop(0))
    return ops + heavy


# --- arith: `check` on long patterns and `reduce` on ESS instances ---------

WALK_SKIPS = [d for d in range(2, 73) if 2520 % d == 0]  # block period at most 5040
WALK_LENGTHS = (48, 72, 96, 120)
WALK_COUNT = 16
SCALE_DIGITS = 60
ESS_CLASSES = (
    # all odd: never a witness by parity, so brute force scans everything
    ("odd", (12, 13, 14)),
    # values up to 10**6 without a witness: the element sum is large
    ("rand", (10, 11, 12, 13, 14)),
    # small values: a witness turns up at once
    ("dense", (14, 16, 18, 20)),
)


def _walk(rng, skips, length, budget=4000):
    """A walk of ``length`` steps with no repeated term in the block graph
    of ``skips``, by randomized depth-first search; None if none is found."""
    period = 2 * math.lcm(*skips)
    for _ in range(20):
        start = rng.randrange(period)
        steps, seen, nodes = [], {start}, [0]

        def extend(t):
            nodes[0] += 1
            if len(steps) == length:
                return True
            if nodes[0] > budget:
                return False
            moves = [a for a in skips if t % a == 0]
            rng.shuffle(moves)
            for a in moves:
                sign = 1 if (t // a) % 2 == 0 else -1
                nxt = t + sign * a
                if nxt < 0 or nxt in seen:
                    continue
                steps.append((sign, a))
                seen.add(nxt)
                if extend(nxt):
                    return True
                steps.pop()
                seen.discard(nxt)
            return False

        if extend(start):
            return steps
    return None


def _mutation(rng, steps, skips, lo, hi):
    """Change one step in [lo, hi) so that no start walks the pattern."""
    for _ in range(60):
        k = rng.randrange(lo, hi)
        sign, a = steps[k]
        new = (-sign, a) if rng.random() < 0.5 else (sign, rng.choice([b for b in skips if b != a]))
        mutated = steps[:k] + [new] + steps[k + 1 :]
        if oracle.least_start(mutated) is None:
            return mutated
    return None


def _check(steps, scale, kind):
    """A `check` op on ``steps`` with every skip multiplied by ``scale``.
    Scaling maps walks to walks, so the least start scales too, and the
    small pattern's scan gives the expected verdict."""
    text = "[" + " ".join(f"{'+' if s > 0 else '-'}{a * scale}" for s, a in steps) + "]"
    start = oracle.least_start(steps)
    if start is None:
        expect = None
    else:
        strict = oracle.walk_failure(steps, start) is None
        expect = ["realizable" if strict else "weakly-realizable", start * scale]
    return op("check", {"text": text, "steps": [list(s) for s in steps]}, kind, expect)


def _ess(rng, cls, n):
    while True:
        if cls == "odd":
            elements = sorted(rng.sample(range(1, 8 * n, 2), n))
        elif cls == "rand":
            elements = sorted(rng.sample(range(1, 10**6), n))
        else:
            elements = sorted(rng.sample(range(1, 3 * n), n))
        answer = oracle.ess_has_witness(elements)
        if answer == (cls == "dense"):
            return op("reduce", elements, cls, answer)


def arith(rng):
    checks = []
    while len(checks) < 4 * WALK_COUNT:
        length = WALK_LENGTHS[(len(checks) // 4) % len(WALK_LENGTHS)]
        skips = sorted({1, *rng.sample(WALK_SKIPS, rng.randint(9, 12))})
        steps = _walk(rng, skips, length)
        if steps is None:
            continue
        thirds = [(1, length // 3), (length // 3, 2 * length // 3), (2 * length // 3, length)]
        mutants = [_mutation(rng, steps, skips, lo, hi) for lo, hi in thirds]
        if None in mutants:
            continue
        scale = rng.randrange(10 ** (SCALE_DIGITS - 1), 10**SCALE_DIGITS)
        checks.append(_check(steps, scale, "walk"))
        checks += [_check(m, scale, kind) for m, kind in zip(mutants, ("early", "middle", "late"))]
    for k, (_, _, text, _) in enumerate(PATH_ROWS):
        checks.insert(6 * k + 3, op("check", {"text": text}, "row", "realizable"))
    reduces = []
    for k in range(60):
        cls, sizes = ESS_CLASSES[k % 3]
        reduces.append(_ess(rng, cls, sizes[(k // 3) % len(sizes)]))
    # one reduce op after every three check ops
    ops = []
    for k in range(max(len(checks), 3 * len(reduces))):
        ops.append(checks[k % len(checks)])
        if k % 3 == 2:
            ops.append(reduces[(k // 3) % len(reduces)])
    return ops


GENERATORS = {"blocks": blocks, "sweep": sweep, "search": search, "arith": arith}
