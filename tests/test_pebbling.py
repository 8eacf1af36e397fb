"""Tests for pebble game move semantics, trace validation, and the move format."""

import random
from dataclasses import dataclass

import pytest

from pebble_bench import (
    Dag,
    FamilySpec,
    IllegalMove,
    IncompletePebbling,
    Move,
    PebblingTrace,
    build_family,
    format_moves,
    parse_moves,
    pb,
    pw,
    rb,
    rw,
    validate_pebbling,
)

SEED = 99


def edge_graph():
    return Dag(2, [(0, 1)], targets=[1])


def illegal(g, moves, game="black"):
    """The message of the IllegalMove that validating ``moves`` raises."""
    with pytest.raises(IllegalMove) as exc:
        validate_pebbling(g, moves, game)
    return str(exc.value)


def test_black_placement_needs_predecessors():
    assert illegal(edge_graph(), [pb(1)]) == "move 1: predecessor of 1 unpebbled"


def test_black_source_placement_and_removal():
    g = edge_graph()
    trace = validate_pebbling(g, [pb(0), pb(1), rb(0), rb(1)], "black")
    assert (trace.time, trace.space) == (2, 2)
    # after RB 0 only 1 is left on the board
    assert illegal(g, [pb(0), pb(1), rb(0), rb(0)]) == "move 4: no black pebble on 0"


def test_double_placement_rejected():
    g = edge_graph()
    assert illegal(g, [pb(0), pb(0)]) == "move 2: vertex 0 already pebbled"
    assert illegal(g, [pb(0), pw(0)], "bw") == "move 2: vertex 0 already pebbled"
    assert illegal(g, [pw(0), pb(0)], "bw") == "move 2: vertex 0 already pebbled"


def test_removing_absent_pebble_rejected():
    g = edge_graph()
    assert illegal(g, [rb(0)]) == "move 1: no black pebble on 0"
    assert illegal(g, [rw(0)], "bw") == "move 1: no white pebble on 0"
    # a pebble of the other colour does not count
    assert illegal(g, [pw(0), rb(0)], "bw") == "move 2: no black pebble on 0"
    assert illegal(g, [pb(0), rw(0)], "bw") == "move 2: no white pebble on 0"


def test_white_moves_forbidden_in_black_game():
    g = edge_graph()
    assert illegal(g, [pw(1)]) == "move 1: white moves forbidden in black game"
    assert illegal(g, [pb(0), rw(0)]) == "move 2: white moves forbidden in black game"


def test_white_placement_free_removal_guarded():
    g = edge_graph()
    # a white pebble can land anywhere, but can only come off once its
    # predecessors are covered
    assert illegal(g, [pw(1), rw(1)], "bw") == "move 2: predecessor of 1 unpebbled"
    trace = validate_pebbling(g, [pw(1), pb(0), rw(1), rb(0)], "bw")
    assert (trace.time, trace.space) == (2, 2)


def test_vertex_out_of_range():
    g = edge_graph()
    assert illegal(g, [pb(2)]) == "move 1: vertex 2 out of range"
    assert illegal(g, [pb(0), rb(-1)]) == "move 2: vertex -1 out of range"
    # the range is checked before the colour
    assert illegal(g, [pw(5)]) == "move 1: vertex 5 out of range"


def test_validate_black_chain():
    g = build_family(FamilySpec.chain(3))
    moves = parse_moves("PB 0\nPB 1\nRB 0\nPB 2\nRB 1\nRB 2")
    trace = validate_pebbling(g, moves, game="black")
    assert trace.time == 3
    assert trace.space == 2
    assert trace.moves_total == 6
    assert trace.report() == {"time": 3, "space": 2, "moves_total": 6}


def test_parse_moves_makes_one_move_per_distinct_move():
    """A move that recurs is one object, so a long schedule holds a Move per
    distinct move, not per line."""
    moves = parse_moves("PB 0\nPB 1000\nRB 0\nPB 0\nRB 1000\nRB 0\nPB 1000")
    assert moves == [pb(0), pb(1000), rb(0), pb(0), rb(1000), rb(0), pb(1000)]
    assert moves[0] is moves[3] and moves[1] is moves[6] and moves[2] is moves[5]
    assert len({id(m) for m in moves}) == 4


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
    assert format_moves(iter(moves)) == text
    # An empty generator is truthy, yet writes nothing.
    assert format_moves(iter([])) == format_moves([]) == ""
    assert format_moves(m for m in moves[:1]) == "PB 0\n"
    assert str(moves[1]) == "PW 3"
    assert parse_moves("c a comment\n" + text) == moves


def test_parse_rejects_junk():
    from pebble_bench import ParseError

    with pytest.raises(ParseError):
        parse_moves("PB x")
    with pytest.raises(ParseError):
        parse_moves("QQ 1")


def test_unknown_move_kind_and_game():
    with pytest.raises(IllegalMove, match="^unknown move kind 'XB'$"):
        Move("XB", 0)
    # the game is checked before the moves, whatever they hold
    g = build_family(FamilySpec.chain(2))
    for moves in ([], [pb(0), pb(1), rb(0), rb(1)], [pb(7)], [pb(0)]):
        with pytest.raises(IllegalMove, match="^unknown game 'red'$") as exc:
            validate_pebbling(g, moves, game="red")
        assert exc.value.index is None


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


# --- the set-based validator it replaced, as a reference ------------------
#
# Verbatim but for names (``reference_`` prefixes) and the placement test,
# which read ``Move.is_placement``.


@dataclass(frozen=True)
class PebbleConfig:
    """Board state: disjoint black and white pebble sets."""

    black: frozenset[int] = frozenset()
    white: frozenset[int] = frozenset()

    @property
    def occupied(self) -> frozenset[int]:
        return self.black | self.white

    def size(self) -> int:
        return len(self.black) + len(self.white)


EMPTY = PebbleConfig()


def reference_step(g: Dag, cfg: PebbleConfig, move: Move, game: str = "black") -> PebbleConfig:
    """Apply one move, raising IllegalMove if the rules forbid it.

    Black placement needs all predecessors pebbled (either colour); black
    removal is free.  White placement is free; white removal needs all
    predecessors pebbled.  White moves are rejected in the black game.
    """
    if game not in ("black", "bw"):
        raise IllegalMove(f"unknown game {game!r}")
    v = move.v
    if not (0 <= v < g.n):
        raise IllegalMove(f"vertex {v} out of range")
    occ = cfg.occupied
    if move.kind == "PB":
        if v in occ:
            raise IllegalMove(f"vertex {v} already pebbled")
        if any(p not in occ for p in g.preds[v]):
            raise IllegalMove(f"predecessor of {v} unpebbled")
        return PebbleConfig(cfg.black | {v}, cfg.white)
    if move.kind == "RB":
        if v not in cfg.black:
            raise IllegalMove(f"no black pebble on {v}")
        return PebbleConfig(cfg.black - {v}, cfg.white)
    if game == "black":
        raise IllegalMove("white moves forbidden in black game")
    if move.kind == "PW":
        if v in occ:
            raise IllegalMove(f"vertex {v} already pebbled")
        return PebbleConfig(cfg.black, cfg.white | {v})
    # RW
    if v not in cfg.white:
        raise IllegalMove(f"no white pebble on {v}")
    if any(p not in occ for p in g.preds[v]):
        raise IllegalMove(f"predecessor of {v} unpebbled")
    return PebbleConfig(cfg.black, cfg.white - {v})


def reference_validate_pebbling(g: Dag, moves, game: str = "black") -> PebblingTrace:
    """Check a move sequence is a complete pebbling and measure it.

    Raises IllegalMove (with the move index) on a rule violation and
    IncompletePebbling if the board is nonempty at the end or some target is
    never pebbled.
    """
    moves = tuple(moves)
    cfg = EMPTY
    time = 0
    space = 0
    hit = set()
    for i, mv in enumerate(moves):
        try:
            cfg = reference_step(g, cfg, mv, game)
        except IllegalMove as e:
            raise IllegalMove(e.reason, index=i) from None
        if mv.kind in ("PB", "PW"):
            time += 1
            if mv.v in g.targets:
                hit.add(mv.v)
        space = max(space, cfg.size())
    if cfg.occupied:
        raise IncompletePebbling("final configuration nonempty")
    missing = [t for t in g.targets if t not in hit]
    if missing:
        raise IncompletePebbling(f"target {missing[0]} never pebbled")
    return PebblingTrace(game=game, moves=moves, time=time, space=space)


def outcome(validate, g, moves, game):
    """(time, space, moves) of a valid pebbling, else (type, message, index)."""
    try:
        trace = validate(g, moves, game)
    except (IllegalMove, IncompletePebbling) as e:
        return type(e), str(e), getattr(e, "index", None)
    return trace.time, trace.space, trace.moves


def random_graph(rng):
    n = rng.randint(1, 8)
    edges = [(u, v) for v in range(1, n) for u in rng.sample(range(v), rng.randint(0, min(3, v)))]
    return Dag(n, edges, targets=rng.sample(range(n), rng.randint(1, n)))


def legal_moves(g, black, white, game):
    """Every move the rules allow on the board (black, white)."""
    occ = black | white
    out = [rb(v) for v in sorted(black)]
    for v in range(g.n):
        ready = all(p in occ for p in g.preds[v])
        if v not in occ:
            if ready:
                out.append(pb(v))
            if game == "bw":
                out.append(pw(v))
        elif v in white and ready:
            out.append(rw(v))
    return out


def legal_biased_moves(g, rng, game):
    """A random walk over legal moves with an occasional random move, then,
    half the time, every removal that the board allows: many of them
    complete pebblings, the rest fail at one rule or another."""
    black, white, moves = set(), set(), []
    for _ in range(rng.randint(0, 3 * g.n)):
        options = legal_moves(g, black, white, game)
        if options and rng.random() < 0.95:
            mv = rng.choice(options)
        else:
            mv = random_move(g, rng)
        moves.append(mv)
        if mv in options:
            board = black if mv.kind[1] == "B" else white
            (board.add if mv.kind[0] == "P" else board.discard)(mv.v)
    if rng.random() < 0.5:
        # whites whose predecessors are on come off first, then the blacks
        for v in sorted(white, reverse=True):
            if all(p in black | white for p in g.preds[v]):
                moves.append(rw(v))
        moves += [rb(v) for v in sorted(black)]
    return moves


def random_move(g, rng):
    return rng.choice((pb, rb, pw, rw))(rng.randint(-1, g.n))


def test_validate_matches_set_based_reference():
    """The bitmask validator against the set-based one it replaced, on
    random and legal-biased move sequences in both games: the same trace
    for a valid pebbling, the same error type, message and index for any
    other."""
    rng = random.Random(SEED + 2)
    valid = {"black": 0, "bw": 0}
    for i in range(3000):
        g = random_graph(rng)
        game = ("black", "bw")[i % 2]
        if i % 3 == 0:
            moves = [random_move(g, rng) for _ in range(rng.randint(0, 6))]
        else:
            moves = legal_biased_moves(g, rng, game)
        want = outcome(reference_validate_pebbling, g, moves, game)
        assert outcome(validate_pebbling, g, moves, game) == want, (g, moves, game)
        valid[game] += isinstance(want[0], int)
    # both branches are well exercised
    assert min(valid.values()) >= 100, valid
