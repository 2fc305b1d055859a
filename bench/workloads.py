"""Seeded .exo generators and the workload table of the benchmark.

Each generator turns a seed into the text of one document, and the same
seed always gives the same bytes. The program under test only ever sees
the generated document and the command-line flags of its workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes of the full benchmark and of the tiny smoke mode.
REFERENCE_RUNS = {"full": 20, "tiny": 3}
REFERENCE_MAX_STEPS = {"full": 5000, "tiny": 200}
MIXED_RUNS = {"full": 1, "tiny": 1}
MIXED_MAX_STEPS = {"full": 20000, "tiny": 300}
ANALYSIS_STATES = {"full": 3000, "tiny": 120}
ANALYSIS_GOALS = {"full": 40, "tiny": 6}
ANALYSIS_SOURCES_PER_GOAL = {"full": 150, "tiny": 10}

MIXED_STATES = 24
MIXED_ACTS = ("hop", "skip", "jump", "leap")
MIXED_POOL = 3
MIXED_DEPTH = 4
MIXED_BLIND_SPOTS = 3
ANALYSIS_ACTS = ("x", "y", "z")
ANALYSIS_DEPTH = 3
ANALYSIS_AGENT = "planner"


def _quote(value: str) -> str:
    return '"' + value + '"'


def _acts_line(rng: random.Random, acts: tuple[str, ...], length: int) -> str:
    return " ".join(rng.choice(acts) for _ in range(length))


def mixed_long_document(seed: int) -> str:
    """A 24-state ring where every kind of agent lives to the step limit.

    Every act moves by a distinct odd stride, so the walk alternates
    between even states, all Positive, and odd states, Neutral or
    Negative. Two steps cost at most 1 + 1 + 1 (penalty) and earn 4, so
    no act sequence can starve: every run ends at --max-steps. The
    neutral act moves too, so an agent idling on a blind spot keeps
    walking.

    The afs3a learner sees every state, and its goal is the state "den",
    which no transition enters. So each episode runs its full depth and
    fails, a new one opens at once, and a run scores exactly
    (steps - 1) // depth episodes whatever the seed: the quadratic
    learning cost is the same work on every seed.
    """
    rng = random.Random(f"mixed-long:{seed}")
    n = MIXED_STATES
    states = [f"s{i:02d}" for i in range(n)]
    odd = states[1::2]
    negative = set(rng.sample(odd, len(odd) // 2))
    lines = ['universe "ring" {']
    lines.append("  states: " + " ".join(states) + " den;")
    lines.append("  acts: " + " ".join(MIXED_ACTS) + ";")
    lines.append(f"  initial: {states[0]};")
    lines.append(f"  neutral_act: {rng.choice(MIXED_ACTS)};")
    lines.append("  classify positive: " + " ".join(states[0::2]) + ";")
    lines.append("  classify neutral: den " + " ".join(s for s in odd if s not in negative) + ";")
    lines.append("  classify negative: " + " ".join(s for s in odd if s in negative) + ";")
    for i, state in enumerate(states):
        strides = [1, 3, 5, 7]
        rng.shuffle(strides)
        for act, stride in zip(MIXED_ACTS, strides):
            lines.append(f"  transition {state} {act} {states[(i + stride) % n]};")
    for act in MIXED_ACTS:
        lines.append(f"  transition den {act} {states[0]};")
    lines.append(
        "  energy { initial: 10; per_step: 1; negative_penalty: 1; "
        "positive_reward: 4; cap: 20; }"
    )
    lines.append("}")

    blind = set(rng.sample(states, MIXED_BLIND_SPOTS))
    seen = [s for s in states if s not in blind]
    formula = {s: f"f{s[1:]}" for s in seen}
    image = [formula[s] for s in seen]

    def agent(name: str, items: list[str]) -> None:
        lines.append("")
        lines.append(f'agent "{name}" in "ring" {{')
        lines.extend(f"  {item}" for item in items)
        lines.append("}")

    def represents() -> list[str]:
        return [f"represents {s} -> {_quote(formula[s])};" for s in seen]

    agent("drifter", ["architecture: random;", f"seed: {rng.randrange(2**32)};"])
    agent("piper", ["architecture: positional;", "constant: pi;"])
    agent("euler", ["architecture: positional;", "constant: e;"])
    agent(
        "reflex",
        ["architecture: afs1;", *represents()]
        + [
            f"react {_quote(f)} : {rng.choice(MIXED_ACTS)};"
            for f in image
            if rng.random() < 0.8
        ],
    )
    recall_goal = rng.choice(image)
    pairs = sorted({(rng.choice(image), rng.choice(image)) for _ in range(200)})
    agent(
        "recaller",
        ["architecture: afs2b;", "depth: 3;", f"goal: {_quote(recall_goal)};", *represents()]
        + [
            f"predict {_quote(src)} -> {_quote(dst)} : "
            f"{_acts_line(rng, MIXED_ACTS, rng.randint(1, 3))};"
            for src, dst in pairs
        ],
    )
    everywhere = {s: f"g{s[1:]}" for s in states + ["den"]}
    goal = everywhere["den"]
    pool = [
        f"pool {index} predict {_quote(everywhere[s])} -> {_quote(goal)} : "
        f"{_acts_line(rng, MIXED_ACTS, rng.randint(1, MIXED_DEPTH))};"
        for index in range(MIXED_POOL)
        for s in states
    ]
    agent(
        "learner",
        ["architecture: afs3a;", f"depth: {MIXED_DEPTH};", f"goal: {_quote(goal)};"]
        + [f"represents {s} -> {_quote(f)};" for s, f in everywhere.items()]
        + pool,
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AnalysisShape:
    """What the generator knows the metrics output must say."""

    goals: dict[str, int]  # goal formula -> number of routes toward it
    positive: frozenset[str]
    negative: frozenset[str]


def analysis_large_document(seed: int, size: str = "full") -> tuple[str, AnalysisShape]:
    """One large random universe and one afs2a agent with many routes.

    The representation is total and injective, so each goal's departure
    set is exactly the set of sources with a route toward it; the
    returned shape lets the benchmark check the program's metrics
    against that count without recomputing stability itself.
    """
    rng = random.Random(f"analysis-large:{seed}")
    n = ANALYSIS_STATES[size]
    states = [f"q{i:04d}" for i in range(n)]
    # Equal thirds, so the escape counting costs the same on every seed.
    words = [("positive", "neutral", "negative")[i % 3] for i in range(n)]
    rng.shuffle(words)
    standing = dict(zip(states, words))
    lines = ['universe "expanse" {']
    lines.append("  states: " + " ".join(states) + ";")
    lines.append("  acts: " + " ".join(ANALYSIS_ACTS) + ";")
    lines.append(f"  initial: {states[0]};")
    lines.append(f"  neutral_act: {ANALYSIS_ACTS[-1]};")
    for word in ("positive", "neutral", "negative"):
        members = [s for s in states if standing[s] == word]
        if members:
            lines.append(f"  classify {word}: " + " ".join(members) + ";")
    for state in states:
        for act in ANALYSIS_ACTS:
            lines.append(f"  transition {state} {act} {rng.choice(states)};")
    lines.append(
        "  energy { initial: 10; per_step: 1; negative_penalty: 2; "
        "positive_reward: 3; cap: 20; }"
    )
    lines.append("}")
    lines.append("")

    formula = {s: f"r{s[1:]}" for s in states}
    goal_states = rng.sample(states, ANALYSIS_GOALS[size])
    routes = []
    goals: dict[str, int] = {}
    for goal_state in goal_states:
        sources = rng.sample(states, ANALYSIS_SOURCES_PER_GOAL[size])
        goals[formula[goal_state]] = len(sources)
        for src in sources:
            routes.append(
                f"  predict {_quote(formula[src])} -> {_quote(formula[goal_state])} : "
                f"{_acts_line(rng, ANALYSIS_ACTS, rng.randint(1, ANALYSIS_DEPTH))};"
            )
    lines.append(f'agent "{ANALYSIS_AGENT}" in "expanse" {{')
    lines.append("  architecture: afs2a;")
    lines.append(f"  depth: {ANALYSIS_DEPTH};")
    lines.append(f"  goal: {_quote(formula[goal_states[0]])};")
    lines.extend(f"  represents {s} -> {_quote(formula[s])};" for s in states)
    lines.extend(routes)
    lines.append("}")
    shape = AnalysisShape(
        goals=goals,
        positive=frozenset(formula[s] for s in goal_states if standing[s] == "positive"),
        negative=frozenset(formula[s] for s in goal_states if standing[s] == "negative"),
    )
    return "\n".join(lines) + "\n", shape
