import opgen


def test_same_seed_same_ops():
    for generate in (opgen.capture_rounds, opgen.sweep_rounds, opgen.serve_rounds):
        assert generate(7) == generate(7)


def _design_points(rounds):
    return [op for ops in rounds for op in ops]


def test_different_seed_different_design_points():
    for generate in (opgen.capture_rounds, opgen.sweep_rounds):
        a, b = generate(1), generate(2)
        assert _design_points(a[:1]) != _design_points(b[:1])
        assert sorted(_design_points(a[:1])) != sorted(_design_points(b[:1]))
    serve_a = opgen.serve_rounds(1)[0]
    serve_b = opgen.serve_rounds(2)[0]
    assert serve_a != serve_b


def test_capture_pairs_drawn_without_replacement():
    pairs = _design_points(opgen.capture_rounds(3))
    assert len(pairs) == len(set(pairs)) == len(opgen.CONFIGS) * opgen.FRAMES


def test_every_round_has_the_same_mix():
    for rounds, configs in (
        (opgen.capture_rounds(4), opgen.CONFIGS),
        (opgen.sweep_rounds(4), opgen.SWEEP_CONFIGS),
    ):
        for ops in rounds:
            names = [op[0] for op in ops]
            per_config = len(names) // len(configs)
            assert sorted(names) == sorted(c for c in configs for _ in range(per_config))
    for ops in opgen.sweep_rounds(4):
        for config, frame in opgen.captures_of(ops):
            points = [(s, t) for c, f, s, t in ops if (c, f) == (config, frame)]
            assert tuple(points) == opgen.FIG17_POINTS


def test_serve_groups_and_replays():
    for steps in opgen.serve_rounds(5):
        rendered = set()
        for per_client in steps:
            assert len(per_client) == opgen.SERVE_CLIENTS
            for client, requests in enumerate(per_client):
                if not requests:
                    continue
                assert requests[0]["op"] == "render"
                config, frame = requests[0]["workload"], requests[0]["frame"]
                assert (config, frame) not in rendered
                rendered.add((config, frame))
                fresh = [q for q in requests if not q.get("replay")]
                assert all(q["workload"] == config for q in fresh)
                evals = [(q["scenario"], q["threshold"]) for q in fresh[1:]]
                assert tuple(evals) == opgen.SERVE_POINTS
        assert {c for c, _ in rendered} == set(opgen.CONFIGS)


def test_serve_replay_share_and_exact_repeats():
    for client in range(opgen.SERVE_CLIENTS):
        sent = []
        for steps in opgen.serve_rounds(6)[:1]:
            for per_client in steps:
                sent.extend(per_client[client])
        for n, request in enumerate(sent, start=1):
            assert bool(request.get("replay")) == (n % opgen.SERVE_REPLAY_EVERY == 0)
            if request.get("replay"):
                original = {k: v for k, v in request.items() if k != "replay"}
                assert original in sent[: n - 1]
