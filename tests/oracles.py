"""Independent oracles for the test suite.

Everything in this module recomputes expected values from first
principles: spigots and fixed-point series for constants, a rescan of
the whole history for learning, plain step-by-step stepping for runs,
exhaustive set enumeration for the stability metrics, and
breadth-first search for routes. Nothing here calls into exosim (the
stepper only reads the fields of the objects it is given), so each test
compares two independent routes to the same answer.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

# First 50 significant decimal digits, used to anchor the spigots and series.
PI_DIGITS_50 = "31415926535897932384626433832795028841971693993751"
E_DIGITS_50 = "27182818284590452353602874713526624977572470936999"


# ---------------------------------------------------------------------------
# Constant digits


def pi_decimal_digits(count: int) -> list[int]:
    """Unbounded decimal spigot for pi (Gibbons streaming algorithm)."""
    out: list[int] = []
    q, r, t, k, n, l = 1, 0, 1, 1, 3, 3
    while len(out) < count:
        if 4 * q + r - t < n * t:
            out.append(n)
            q, r, n = 10 * q, 10 * (r - n * t), (10 * (3 * q + r)) // t - 10 * n
        else:
            q, r, t, k, n, l = (
                q * k,
                (2 * q + r) * l,
                t * l,
                k + 1,
                (q * (7 * k + 2) + r * l) // (t * l),
                l + 2,
            )
    return out


def e_decimal_digits(count: int) -> list[int]:
    """Decimal digits of e via the classic mixed-radix spigot."""
    if count <= 0:
        return []
    out = [2]
    width = count + 10
    cells = [1] * (width + 1)
    for _ in range(count - 1):
        carry = 0
        for i in range(width, 0, -1):
            value = cells[i] * 10 + carry
            carry, cells[i] = divmod(value, i + 1)
        out.append(carry)
    return out


def _arctan_inverse(x: int, one: int) -> tuple[int, int]:
    """arctan(1/x) * one by its Taylor series in fixed point, with a
    bound on the error in units of one part: (value, error bound)."""
    power = one // x
    total = power
    terms = 1
    divisor = 3
    while power:
        power //= x * x
        term = power // divisor
        total += -term if terms % 2 else term
        terms += 1
        divisor += 2
    # Each term is off by under 2 units, and the dropped tail is under 4.
    return total, 2 * (terms + 2)


def pi_fixed_point(scale: int) -> tuple[int, int]:
    """Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) at
    10**scale: (N, err) with |pi * 10**scale - N| <= err."""
    one = 10**scale
    a, a_err = _arctan_inverse(5, one)
    b, b_err = _arctan_inverse(239, one)
    return 16 * a - 4 * b, 16 * a_err + 4 * b_err


def e_fixed_point(scale: int) -> tuple[int, int]:
    """e = sum of 1/k! at 10**scale: (N, err) with |e * 10**scale - N| <= err."""
    term = 10**scale
    total = 0
    terms = 0
    while term:
        total += term
        terms += 1
        term //= terms
    # Each term is off by under 2 units, and the dropped tail is under 4.
    return total, 2 * (terms + 2)


def _digits_from_scaled(scaled: int, scale: int, base: int, count: int) -> list[int]:
    """First count base-b digits of scaled / 10**scale (integer part first),
    the fractional ones by repeated multiplication by the base."""
    modulus = 10**scale
    integer_part, frac = divmod(scaled, modulus)
    head = []
    while integer_part:
        integer_part, d = divmod(integer_part, base)
        head.append(d)
    out = head[::-1][:count]
    while len(out) < count:
        d, frac = divmod(frac * base, modulus)
        out.append(d)
    return out


def certified_constant_digits(name: str, base: int, count: int) -> list[int]:
    """Base-b digits of pi or e, certified by interval agreement.

    A fixed-point series (Machin's formula for pi, the factorial series
    for e) gives N and a bound err with the constant inside
    [N - err, N + err] / 10**scale; a digit is certified when both
    endpoints agree on it. Precision is raised until the whole prefix is
    certain.
    """
    if base == 1:
        return [0] * count
    source = pi_fixed_point if name == "pi" else e_fixed_point
    scale = int(count * math.log10(base)) + 8
    while True:
        scaled, err = source(scale)
        lo = _digits_from_scaled(scaled - err, scale, base, count)
        hi = _digits_from_scaled(scaled + err, scale, base, count)
        if lo == hi:
            return lo
        scale += 32


# ---------------------------------------------------------------------------
# Stability metrics from first principles


def stability_oracle(
    states: list[str],
    classes: dict[str, str],
    rmap: dict[str, str],
    table: dict[tuple[str, str], tuple[str, ...]],
) -> dict:
    """Materialize every set in the stability definitions naively.

    classes values are "positive" / "neutral" / "negative"; rmap maps
    states to formulas; table maps (source formula, goal formula) to a
    non-empty act sequence.
    """
    everything = sorted(states)
    n = len(everything)

    objectives = {goal for (_, goal) in table}

    def preimage(formula: str) -> set[str]:
        return {s for s in everything if rmap.get(s) == formula}

    def uniform_class(formula: str) -> str | None:
        pre = preimage(formula)
        if not pre:
            return None
        tags = {classes[s] for s in pre}
        return tags.pop() if len(tags) == 1 else "mixed"

    positive = {f for f in objectives if uniform_class(f) == "positive"}
    negative = {f for f in objectives if uniform_class(f) == "negative"}

    def departures(target: str) -> set[str]:
        return {
            s
            for s in everything
            if s in rmap and (rmap[s], target) in table
        }

    neutral_states = [j for j in everything if classes[j] == "neutral"]

    def escape_counts(source_class: str) -> dict[str, int]:
        out = {}
        for j in neutral_states:
            if j not in rmap:
                out[j] = 0
                continue
            out[j] = sum(
                1
                for s in everything
                if classes[s] == source_class
                and s in rmap
                and (rmap[s], rmap[j]) in table
            )
        return out

    neg_escapes = escape_counts("negative")
    pos_escapes = escape_counts("positive")

    def toward(chosen: set[str]) -> Fraction:
        if not chosen or n == 0:
            return Fraction(0)
        return sum(
            (Fraction(len(departures(f)), n) for f in sorted(chosen)),
            Fraction(0),
        ) / len(chosen)

    basic = toward(positive) + (Fraction(sum(neg_escapes.values()), n) if n else Fraction(0))
    instability = toward(negative) + (
        Fraction(sum(pos_escapes.values()), n) if n else Fraction(0)
    )
    return {
        "objectives": objectives,
        "positive": positive,
        "negative": negative,
        "departures": {f: len(departures(f)) for f in sorted(objectives) if preimage(f)},
        "negative_escapes": neg_escapes,
        "positive_escapes": pos_escapes,
        "basic": basic,
        "instability": instability,
        "total": basic - instability,
    }


# ---------------------------------------------------------------------------
# Learning


def success_rates(history, pool_size: int) -> list[Fraction]:
    """Per-candidate success rate by rescanning a learner's whole history
    (records with table_index and success); unattempted candidates are 0."""
    attempts = [0] * pool_size
    successes = [0] * pool_size
    for rec in history:
        attempts[rec.table_index] += 1
        if rec.success:
            successes[rec.table_index] += 1
    return [
        Fraction(successes[i], attempts[i]) if attempts[i] else Fraction(0)
        for i in range(pool_size)
    ]


def active_index(history, pool_size: int) -> int:
    """The candidate a learner should trust: highest rate, ties to the
    lowest index."""
    rates = success_rates(history, pool_size)
    return max(range(pool_size), key=lambda i: (rates[i], -i))


# ---------------------------------------------------------------------------
# Stepping


class _Scored:
    """One scored prediction, as oracles.active_index reads it."""

    def __init__(self, table_index: int, success: bool) -> None:
        self.table_index = table_index
        self.success = success


def _draw(seed: int, t: int) -> float:
    """Step t of a seeded splitmix64 stream as a float in [0, 1)."""
    mask = (1 << 64) - 1
    golden = 0x9E3779B97F4A7C15
    z = (seed + t * golden + golden) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    u = ((z ^ (z >> 31)) & mask) / 2**64
    return u if u < 1.0 else 1.0 - 2.0**-53


def reference_trajectory(
    universe, agent, max_steps: int, seed: int | None = None, credit=(), scores=None
):
    """Plain stepping from first principles: ([step tuples], reason).

    Each step is (t, state_before, formula, sequence, act, state_after,
    energy_after); reason is "ExoinactiveEnergy", "StepLimit", or
    "DigitsExhausted" when an explicit digit list runs out before the
    run ends. Every step perceives, generates and projects afresh by
    reading the agent's and the universe's fields; a learner re-picks
    its table by rescanning its whole history with active_index.
    credit holds (table index, success) records that join the history
    each time an episode is scored, as an outside scorer would add them;
    scores, when a list, receives the (table index, success) of each
    episode as it is scored.
    Models are assumed well formed.
    """
    kind = agent.kind.value
    rmap = agent.representation.entries if agent.representation is not None else {}
    e = universe.energy
    order = sorted(universe.acts)
    if kind == "random":
        seed = agent.seed if seed is None else seed
    elif kind == "positional":
        source = agent.digits
        if hasattr(source, "digits"):
            digits = list(source.digits)
        else:
            digits = certified_constant_digits(source.name, source.base, max_steps)
    memory = agent.goal
    pool = agent.tables
    history: list[_Scored] = []
    active = 0
    episode = None  # [observed, table index, limit, age]
    state, energy = universe.initial, e.initial_energy
    steps = []
    for t in range(max_steps):
        formula = sequence = None
        if kind == "random":
            act = order[int(_draw(seed, t) * len(order))]
        elif kind == "positional":
            if t >= len(digits):
                return steps, "DigitsExhausted"
            act = order[digits[t]]
        else:
            formula = rmap.get(state)
            if kind == "afs3a" and episode is not None:
                episode[3] += 1
                hit = formula is not None and formula == agent.goal
                if hit or episode[3] >= episode[2]:
                    if scores is not None:
                        scores.append((episode[1], hit))
                    history.append(_Scored(episode[1], hit))
                    history.extend(_Scored(i, ok) for i, ok in credit)
                    active = active_index(history, len(pool))
                    episode = None
            if formula is not None:
                if kind == "afs1":
                    reaction = agent.reaction or {}
                    sequence = (reaction[formula],) if formula in reaction else None
                else:
                    target = memory if kind == "afs2b" else agent.goal
                    table = pool[active] if kind == "afs3a" else agent.tables[0]
                    if table is not None and target is not None:
                        sequence = table.entries.get((formula, target))
            if kind == "afs3a" and sequence and episode is None:
                episode = [formula, active, pool[active].depth_max, 0]
            if kind == "afs2b":
                memory = formula
            act = sequence[agent.projection_index - 1] if sequence else universe.neutral_act
        nxt = universe.transitions[(state, act)]
        energy -= e.per_step_cost
        landed = universe.classes[nxt].value
        if landed == "negative":
            energy -= e.negative_penalty
        elif landed == "positive":
            energy = min(energy + e.positive_reward, e.energy_cap)
        steps.append((t, state, formula, sequence, act, nxt, energy))
        state = nxt
        if energy <= 0:
            return steps, "ExoinactiveEnergy"
    return steps, "StepLimit"


# ---------------------------------------------------------------------------
# Route search


def bfs_route(
    transitions: dict[tuple[str, str], str],
    acts: list[str],
    source: str,
    goal: str,
) -> tuple[str, ...] | None:
    """Shortest non-empty act sequence from source to goal, or None.

    Ties break on sorted act order, so the result is deterministic.
    """
    ordered = sorted(acts)
    queue: deque[tuple[str, tuple[str, ...]]] = deque()
    seen = set()
    for act in ordered:
        nxt = transitions[(source, act)]
        if nxt == goal:
            return (act,)
        if nxt not in seen:
            seen.add(nxt)
            queue.append((nxt, (act,)))
    while queue:
        state, path = queue.popleft()
        for act in ordered:
            nxt = transitions[(state, act)]
            if nxt == goal:
                return path + (act,)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + (act,)))
    return None


# ---------------------------------------------------------------------------
# Statistics


def chi_square_statistic(counts: list[int]) -> float:
    total = sum(counts)
    expected = total / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def chi_square_bound_4_sigma(bins: int) -> float:
    """Mean + 4 standard deviations of the chi-square distribution with
    bins - 1 degrees of freedom."""
    df = bins - 1
    return df + 4 * math.sqrt(2 * df)


# ---------------------------------------------------------------------------
# Random case generators (deterministic under a seeded Random)


def random_universe_case(rng: random.Random) -> dict:
    """One random stability case: a small universe, a partial injective
    representation, and a random route table over the image."""
    n_states = rng.randint(2, 8)
    n_acts = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    acts = [f"a{i}" for i in range(n_acts)]
    classes = {s: rng.choice(("positive", "neutral", "negative")) for s in states}
    transitions = {
        (s, a): rng.choice(states) for s in states for a in acts
    }
    covered = rng.sample(states, rng.randint(0, n_states))
    rmap = {s: f"f_{s}" for s in covered}
    formulas = sorted(rmap.values())
    table: dict[tuple[str, str], tuple[str, ...]] = {}
    if formulas:
        depth = rng.randint(1, 4)
        for _ in range(rng.randint(0, 12)):
            source = rng.choice(formulas)
            goal = rng.choice(formulas)
            seq = tuple(rng.choice(acts) for _ in range(rng.randint(1, depth)))
            table[(source, goal)] = seq
    else:
        depth = 1
    return {
        "states": states,
        "acts": acts,
        "classes": classes,
        "transitions": transitions,
        "initial": rng.choice(states),
        "neutral_act": rng.choice(acts),
        "rmap": rmap,
        "table": table,
        "depth": depth,
    }



def shared_formula_case(rng: random.Random) -> dict:
    """One random stability case of the shapes random_universe_case never
    draws: formulas shared by two or three states, route sources outside
    the image, and represented ids outside the universe. Foreign ids sit
    only behind formulas that no route targets, so every goal stands for
    universe states of one standing, or for no state at all, and the
    objectives stay decidable."""
    n_states = rng.randint(2, 9)
    n_acts = rng.randint(1, 3)
    states = [f"s{i}" for i in range(n_states)]
    acts = [f"a{i}" for i in range(n_acts)]
    classes = {s: rng.choice(("positive", "neutral", "negative")) for s in states}
    transitions = {(s, a): rng.choice(states) for s in states for a in acts}
    covered = rng.sample(states, rng.randint(0, n_states))
    rmap: dict[str, str] = {}
    formulas: list[str] = []
    while covered:
        size = rng.choice((1, 2, 2, 3))
        formulas.append(f"f{len(formulas)}")
        rmap.update((s, formulas[-1]) for s in covered[:size])
        covered = covered[size:]
    # Foreign ids join an existing formula or get one of their own.
    for i in range(rng.randint(0, 3)):
        own = f"g{i}"
        rmap[f"x{i}"] = rng.choice(formulas + [own]) if formulas else own
    image = sorted(set(rmap.values()))

    def goal_ready(formula: str) -> bool:
        members = [s for s, f in rmap.items() if f == formula]
        if not all(s in classes for s in members):
            return False
        return len({classes[s] for s in members}) == 1

    goals = [f for f in image if goal_ready(f)] + ["nowhere"]
    sources = image + ["elsewhere", "nowhere"]
    table: dict[tuple[str, str], tuple[str, ...]] = {}
    depth = rng.randint(1, 3)
    for _ in range(rng.randint(0, 14)):
        seq = tuple(rng.choice(acts) for _ in range(rng.randint(1, depth)))
        table[(rng.choice(sources), rng.choice(goals))] = seq
    return {
        "states": states,
        "acts": acts,
        "classes": classes,
        "transitions": transitions,
        "initial": rng.choice(states),
        "neutral_act": rng.choice(acts),
        "rmap": rmap,
        "table": table,
        "depth": depth,
    }
