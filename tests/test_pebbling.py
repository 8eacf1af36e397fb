"""Tests for pebble game move semantics, trace validation, and the move format."""

import random

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    IllegalMove,
    IncompletePebbling,
    PebbleConfig,
    build_family,
    format_moves,
    parse_moves,
    pb,
    pw,
    rb,
    rw,
    step,
    validate_pebbling,
)

SEED = 99


def edge_graph():
    return Dag(2, [(0, 1)], targets=[1])


def test_black_placement_needs_predecessors():
    g = edge_graph()
    cfg = PebbleConfig(frozenset(), frozenset())
    with pytest.raises(IllegalMove) as exc:
        step(g, cfg, pb(1), "black")
    assert "predecessor" in str(exc.value)


def test_black_source_placement_and_removal():
    g = edge_graph()
    cfg = PebbleConfig(frozenset(), frozenset())
    cfg = step(g, cfg, pb(0), "black")
    assert cfg.black == frozenset({0})
    cfg = step(g, cfg, pb(1), "black")
    cfg = step(g, cfg, rb(0), "black")
    assert cfg.black == frozenset({1})


def test_double_placement_rejected():
    g = edge_graph()
    cfg = step(g, PebbleConfig(frozenset(), frozenset()), pb(0), "black")
    with pytest.raises(IllegalMove):
        step(g, cfg, pb(0), "black")
    with pytest.raises(IllegalMove):
        step(g, cfg, pw(0), "bw")


def test_removing_absent_pebble_rejected():
    g = edge_graph()
    cfg = PebbleConfig(frozenset(), frozenset())
    with pytest.raises(IllegalMove):
        step(g, cfg, rb(0), "black")
    with pytest.raises(IllegalMove):
        step(g, cfg, rw(0), "bw")


def test_white_moves_forbidden_in_black_game():
    g = edge_graph()
    cfg = PebbleConfig(frozenset(), frozenset())
    with pytest.raises(IllegalMove) as exc:
        step(g, cfg, pw(1), "black")
    assert "white" in str(exc.value)


def test_white_placement_free_removal_guarded():
    g = edge_graph()
    cfg = PebbleConfig(frozenset(), frozenset())
    # a white pebble can land anywhere
    cfg = step(g, cfg, pw(1), "bw")
    # but can only come off once its predecessors are covered
    with pytest.raises(IllegalMove) as exc:
        step(g, cfg, rw(1), "bw")
    assert "predecessor" in str(exc.value)
    cfg = step(g, cfg, pb(0), "bw")
    cfg = step(g, cfg, rw(1), "bw")
    cfg = step(g, cfg, rb(0), "bw")
    assert cfg.occupied == frozenset()


def test_validate_black_chain():
    g = build_family(FamilySpec.chain(3))
    moves = parse_moves("PB 0\nPB 1\nRB 0\nPB 2\nRB 1\nRB 2")
    trace = validate_pebbling(g, moves, game="black")
    assert trace.time == 3
    assert trace.space == 2
    assert trace.moves_total == 6
    assert trace.report() == {"time": 3, "space": 2, "moves_total": 6}


def test_validate_flags_move_index():
    g = build_family(FamilySpec.chain(3))
    moves = parse_moves("PB 0\nPB 2")
    with pytest.raises(IllegalMove) as exc:
        validate_pebbling(g, moves, game="black")
    assert str(exc.value).startswith("move 2:")


def test_validate_requires_empty_final_configuration():
    g = edge_graph()
    moves = parse_moves("PB 0\nPB 1\nRB 1")
    with pytest.raises(IncompletePebbling) as exc:
        validate_pebbling(g, moves, game="black")
    assert "final configuration" in str(exc.value)


def test_validate_requires_targets_pebbled():
    g = edge_graph()
    moves = parse_moves("PB 0\nRB 0")
    with pytest.raises(IncompletePebbling) as exc:
        validate_pebbling(g, moves, game="black")
    assert "target 1" in str(exc.value)


def test_white_target_counts_as_pebbled():
    # a complete bw pebbling may touch the target with a white pebble
    g = edge_graph()
    moves = parse_moves("PW 1\nPB 0\nRW 1\nRB 0")
    trace = validate_pebbling(g, moves, game="bw")
    assert trace.time == 2
    assert trace.space == 2


def test_bw_moves_rejected_by_black_validation():
    g = edge_graph()
    moves = parse_moves("PW 1\nPB 0\nRW 1\nRB 0")
    with pytest.raises(IllegalMove):
        validate_pebbling(g, moves, game="black")


def test_space_counts_both_colours():
    g = build_family(FamilySpec.pyramid(1))
    moves = parse_moves("PW 0\nPW 1\nPB 2\nRW 0\nRW 1\nRB 2")
    trace = validate_pebbling(g, moves, game="bw")
    assert trace.space == 3  # two whites and a black on the board at once
    assert trace.time == 3  # time counts placements of either colour


def test_format_round_trip():
    text = "PB 0\nPW 3\nRW 3\nRB 0\n"
    moves = parse_moves(text)
    assert format_moves(moves) == text
    assert str(moves[1]) == "PW 3"
    assert parse_moves("c a comment\n" + text) == moves


def test_parse_rejects_junk():
    from pebble_bench import ParseError

    with pytest.raises(ParseError):
        parse_moves("PB x")
    with pytest.raises(ParseError):
        parse_moves("QQ 1")


def test_unknown_move_kind_and_game():
    from pebble_bench import Move

    with pytest.raises(IllegalMove, match="^unknown move kind 'XB'$"):
        Move("XB", 0)
    g = build_family(FamilySpec.chain(2))
    with pytest.raises(IllegalMove, match="^unknown game 'red'$"):
        step(g, PebbleConfig(), pb(0), game="red")


def random_complete_black_trace(g, rng):
    """Emit a legal complete black pebbling by recursive construction."""
    moves = []
    board = set()

    def build(v):
        for u in g.preds[v]:
            build(u)
        if v not in board:
            moves.append(pb(v))
            board.add(v)
        for u in g.preds[v]:
            if u in board and rng.random() < 0.5:
                moves.append(rb(u))
                board.discard(u)

    for t in g.targets:
        build(t)
    for v in sorted(board):
        moves.append(rb(v))
    return moves


def test_random_traces_validate():
    rng = random.Random(SEED)
    specs = [FamilySpec.chain(5), FamilySpec.pyramid(2), FamilySpec.binary_tree(2)]
    for _ in range(50):
        spec = rng.choice(specs)
        g = build_family(spec)
        moves = random_complete_black_trace(g, rng)
        trace = validate_pebbling(g, moves, game="black")
        assert trace.time == sum(1 for m in moves if m.kind == "PB")
        # round trip through the text format preserves validity
        again = parse_moves(format_moves(moves))
        assert validate_pebbling(g, again, game="black").space == trace.space


def test_mutated_traces_rejected():
    rng = random.Random(SEED + 1)
    g = build_family(FamilySpec.pyramid(2))
    for _ in range(50):
        moves = random_complete_black_trace(g, rng)
        i = rng.randrange(len(moves))
        bad = list(moves)
        del bad[i]  # dropping any single move breaks legality or completeness
        with pytest.raises((IllegalMove, IncompletePebbling)):
            validate_pebbling(g, bad, game="black")
