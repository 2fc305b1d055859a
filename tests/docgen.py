"""Deterministic generator of valid .exo documents.

The emitted text is deliberately scruffy (shuffled items, comments,
ragged whitespace, occasional benign duplicates) while staying inside
the format, so parsing it exercises more than the canonical layout.
"""

from __future__ import annotations

import random


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _formula(rng: random.Random, i: int) -> str:
    roll = rng.random()
    if roll < 0.1:
        return f'p{i} "q\\{i}"'
    if roll < 0.2:
        return f"goal state {i}"
    return f"p{i}"


def _universe_items(rng: random.Random) -> tuple[list[str], dict]:
    n_states = rng.randint(2, 8)
    n_acts = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    if rng.random() < 0.2:
        states[0] = rng.choice(("origin", "hub", "loop_"))
    acts = [f"a{i}" for i in range(n_acts)]
    if rng.random() < 0.2:
        acts[0] = rng.choice(("move", "wait_", "pi"))
    items: list[str] = []
    if len(states) > 2 and rng.random() < 0.4:
        cut = rng.randint(1, len(states) - 1)
        items.append("states: " + " ".join(states[:cut]) + ";")
        items.append("states: " + " ".join(states[cut:]) + ";")
    else:
        items.append("states: " + " ".join(states) + ";")
    items.append("acts: " + " ".join(acts) + ";")
    items.append(f"initial: {rng.choice(states)};")
    items.append(f"neutral_act: {rng.choice(acts)};")
    classified: dict[str, str] = {}
    for state in states:
        if rng.random() < 0.8:
            classified[state] = rng.choice(("positive", "neutral", "negative"))
    for word in ("positive", "neutral", "negative"):
        members = [s for s, w in classified.items() if w == word]
        if members:
            items.append(f"classify {word}: " + " ".join(members) + ";")
    for s in states:
        for a in acts:
            line = f"transition {s} {a} {rng.choice(states)};"
            items.append(line)
            if rng.random() < 0.03:
                items.append(line)  # benign duplicate, warns only
    initial = rng.randint(1, 20)
    items.append(
        "energy { initial: %d; per_step: %d; negative_penalty: %d; "
        "positive_reward: %d; cap: %d; }"
        % (
            initial,
            rng.randint(0, 3),
            rng.randint(0, 5),
            rng.randint(0, 5),
            initial + rng.randint(0, initial),
        )
    )
    return items, {"states": states, "acts": acts}


def _agent_items(rng: random.Random, shape: dict) -> list[str]:
    kind = rng.choice(("random", "positional", "afs1", "afs2a", "afs2b", "afs3a"))
    items = [f"architecture: {kind};"]
    states, acts = shape["states"], shape["acts"]
    if kind == "random":
        if rng.random() < 0.7:
            items.append(f"seed: {rng.randint(0, 2**32)};")
        return items
    if kind == "positional":
        roll = rng.random()
        if roll < 0.4:
            items.append(f"constant: {rng.choice(('pi', 'e'))};")
        elif roll < 0.7:
            digits = "".join(
                str(rng.randrange(len(acts))) for _ in range(rng.randint(1, 24))
            )
            items.append(f"constant: digits {_quote(digits)};")
        return items
    covered = rng.sample(states, rng.randint(2, len(states)))
    formulas = {state: _formula(rng, i) for i, state in enumerate(covered)}
    for state, formula in formulas.items():
        items.append(f"represents {state} -> {_quote(formula)};")
    image = sorted(set(formulas.values()))
    if kind == "afs1":
        for formula in image:
            if rng.random() < 0.7:
                items.append(f"react {_quote(formula)} : {rng.choice(acts)};")
        return items
    depth = rng.randint(1, 4)
    projection = 1
    depth_declared = rng.random() < 0.8
    if depth_declared:
        items.append(f"depth: {depth};")
        if depth > 1 and rng.random() < 0.5:
            projection = rng.randint(1, depth)
            items.append(f"projection: {projection};")
    goal = rng.choice(image)
    needs_goal = kind in ("afs2a", "afs3a")
    if needs_goal or rng.random() < 0.6:
        items.append(f"goal: {_quote(goal)};")

    def route_rows(prefix: str) -> list[str]:
        rows = []
        pairs = set()
        for _ in range(rng.randint(0, 8)):
            source, target = rng.choice(image), rng.choice(image)
            if (source, target) in pairs:
                continue
            pairs.add((source, target))
            length = rng.randint(projection, depth)
            seq = " ".join(rng.choice(acts) for _ in range(length))
            rows.append(f"{prefix}predict {_quote(source)} -> {_quote(target)} : {seq};")
        return rows

    if kind in ("afs2a", "afs2b"):
        items.extend(route_rows(""))
    else:
        for index in range(rng.randint(1, 3)):
            rows = route_rows(f"pool {index} ")
            if not rows:
                length = rng.randint(projection, depth)
                seq = " ".join(rng.choice(acts) for _ in range(length))
                rows = [
                    f"pool {index} predict {_quote(image[0])} -> {_quote(goal)} : {seq};"
                ]
            items.extend(rows)
    return items


_SEPARATORS = ("\n", "\n", "\n\n", "\n  ", " ")
_COMMENTS = ("# note", "# ragged comment ; with punctuation {", "#")


def _emit_block(rng: random.Random, header: str, items: list[str], out: list[str]) -> None:
    body = list(items)
    rng.shuffle(body)
    out.append(header + " {")
    for item in body:
        if rng.random() < 0.12:
            out.append(rng.choice(_COMMENTS))
        if rng.random() < 0.1 and " " in item and not item.startswith("energy"):
            head, _, tail = item.partition(" ")
            out.append(head)
            out.append(rng.choice(_SEPARATORS).strip("\n") + tail)
        else:
            out.append(item)
    out.append("}")


def random_document_text(seed: int) -> str:
    """One valid document; identical seeds produce identical text."""
    rng = random.Random(seed)
    out: list[str] = []
    shapes: dict[str, dict] = {}
    for u in range(rng.randint(1, 2)):
        name = f"world{u}"
        items, shape = _universe_items(rng)
        shapes[name] = shape
        _emit_block(rng, f"universe {_quote(name)}", items, out)
    for a in range(rng.randint(0, 4)):
        universe = rng.choice(sorted(shapes))
        suffix = f' "{a}"' if rng.random() < 0.15 else ""
        header = f"agent {_quote(f'crew{a}{suffix}')} in {_quote(universe)}"
        _emit_block(rng, header, _agent_items(rng, shapes[universe]), out)
    text = "\n".join(out) + "\n"
    return text


_MUTATIONS = ("delete", "insert", "swap", "dup_line", "truncate", "garble")
_NOISE = ';{}":->#abz019 \n\t'


def mutate_text(text: str, seed: int) -> str:
    """One random mutation of a document, for fuzzing the parser."""
    rng = random.Random(seed)
    op = rng.choice(_MUTATIONS)
    if not text:
        return rng.choice(_NOISE)
    if op == "delete":
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    if op == "insert":
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(_NOISE) + text[i:]
    if op == "swap":
        i = rng.randrange(len(text) - 1)
        return text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    if op == "dup_line":
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
        return "".join(lines)
    if op == "truncate":
        return text[: rng.randrange(len(text))]
    i = rng.randrange(len(text))
    j = min(len(text), i + rng.randint(1, 12))
    middle = "".join(rng.choice(_NOISE) for _ in range(j - i))
    return text[:i] + middle + text[j:]
