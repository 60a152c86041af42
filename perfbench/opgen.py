"""Seeded op lists for the three workloads.

The benchmark, not the program, decides what is run: each generator
turns ``--seed`` into plain tuples of workload names, frame indices and
design points, and the program only ever sees those inputs. The same
seed always yields the same list.

Every list is cut into *rounds*. A round covers each of the
workload's game configurations once, so every round has the same cost
mix whatever the seed; a run measures a fixed number of whole rounds
(see ``run.py``), which keeps medians and tails comparable between
seeds and between versions of the program.
"""

from __future__ import annotations

import random

#: The eleven Table II game configurations (the experiments' default
#: workload list, in Table II order).
CONFIGS = (
    "HL2-1600x1200",
    "HL2-1280x1024",
    "HL2-640x480",
    "doom3-1600x1200",
    "doom3-1280x1024",
    "doom3-640x480",
    "grid-1280x1024",
    "nfs-1280x1024",
    "stal-1280x1024",
    "Ut3-1280x1024",
    "wolf-640x480",
)
#: ``sweep`` evaluates one configuration per game (its 1280x1024 one,
#: or its only one): the Fig. 17 plan on all eleven would make a round
#: too long for the run budget, and the per-game cost mix is kept.
SWEEP_CONFIGS = (
    "HL2-1280x1024",
    "doom3-1280x1024",
    "grid-1280x1024",
    "nfs-1280x1024",
    "stal-1280x1024",
    "Ut3-1280x1024",
    "wolf-640x480",
)
FRAMES = 8
SCALE = 0.25

#: The Fig. 17 plan on one capture: baseline@1.0, then PATU at
#: thresholds 0.0, 0.1, ..., 1.0 (the order ``fig17_threshold.plan``
#: uses).
FIG17_POINTS = (("baseline", 1.0),) + tuple(
    ("patu", round(t / 10, 1)) for t in range(11)
)

#: The design points ``serve`` evaluates on every frame it renders: both
#: ends of the Fig. 17 sweep and the paper's default threshold. Fixing
#: them keeps each round's cost mix the same; the seed still picks the
#: frames, hence the design points. Every ``SERVE_REPLAY_EVERY``-th
#: request of a client is a replay.
SERVE_POINTS = (("patu", 0.0), ("patu", 0.4), ("baseline", 1.0))
#: ``serve`` renders at a smaller scale than the in-process workloads:
#: four times as many requests fit in a run, so each config appears in
#: several rounds and the tail percentile lands inside one cluster of
#: render latencies instead of between clusters.
SERVE_SCALE = 0.125
SERVE_REPLAY_EVERY = 8
SERVE_CLIENTS = 2


def _frame_plan(rng: random.Random) -> "dict[str, list[int]]":
    """A seeded frame permutation per config: round r uses entry r."""
    return {c: rng.sample(range(FRAMES), FRAMES) for c in CONFIGS}


def capture_rounds(seed: int) -> "list[list[tuple[str, int]]]":
    """(config, frame) pairs, drawn without replacement, 11 per round."""
    rng = random.Random(f"capture:{seed}")
    frames = _frame_plan(rng)
    return [
        [(c, frames[c][r]) for c in rng.sample(CONFIGS, len(CONFIGS))]
        for r in range(FRAMES)
    ]


def sweep_rounds(
    seed: int,
) -> "list[list[tuple[str, int, str, float]]]":
    """Design-point evals: the Fig. 17 plan on each round's captures."""
    rng = random.Random(f"sweep:{seed}")
    frames = _frame_plan(rng)
    rounds = []
    for r in range(FRAMES):
        ops = []
        for c in rng.sample(SWEEP_CONFIGS, len(SWEEP_CONFIGS)):
            ops.extend((c, frames[c][r], s, t) for s, t in FIG17_POINTS)
        rounds.append(ops)
    return rounds


def captures_of(ops) -> "list[tuple[str, int]]":
    """The distinct (config, frame) captures an op list reads, in order."""
    seen: "dict[tuple[str, int], None]" = {}
    for op in ops:
        seen.setdefault((op[0], op[1]), None)
    return list(seen)


def serve_rounds(seed: int) -> "list[list[list[list[dict]]]]":
    """Per round, the barrier steps; per step, one request list per client.

    Each round renders every config once, split between the clients.
    A request group is a render of a new frame followed by the
    ``SERVE_POINTS`` evals on that frame; every ``SERVE_REPLAY_EVERY``-th request of a
    client repeats one of its earlier evals exactly (``replay``). Step
    j holds group j of each client; the clients meet at a barrier
    between steps, where the reference probe runs.
    """
    rng = random.Random(f"serve:{seed}")
    frames = _frame_plan(rng)
    rounds = []
    for r in range(FRAMES):
        order = rng.sample(CONFIGS, len(CONFIGS))
        groups: "list[list[list[dict]]]" = [[] for _ in range(SERVE_CLIENTS)]
        sent = [0] * SERVE_CLIENTS
        evals: "list[list[dict]]" = [[] for _ in range(SERVE_CLIENTS)]
        for i, config in enumerate(order):
            client = i % SERVE_CLIENTS
            frame = frames[config][r]
            fresh = [{"op": "render", "workload": config, "frame": frame}]
            for scenario, threshold in SERVE_POINTS:
                fresh.append({
                    "op": "eval", "workload": config, "frame": frame,
                    "scenario": scenario, "threshold": threshold,
                })
            group = []
            for request in fresh:
                sent[client] += 1
                if sent[client] % SERVE_REPLAY_EVERY == 0 and evals[client]:
                    group.append({**rng.choice(evals[client]), "replay": True})
                    sent[client] += 1
                group.append(request)
                if request["op"] == "eval":
                    evals[client].append(request)
            groups[client].append(group)
        steps = max(len(g) for g in groups)
        rounds.append([
            [groups[c][j] if j < len(groups[c]) else [] for c in range(SERVE_CLIENTS)]
            for j in range(steps)
        ])
    return rounds
