"""Guard regex parsing, printing, and membership compilation."""

import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from snpkit import regex
from snpkit.regex import (
    MAX_NESTING,
    MAX_WALK,
    Concat,
    Literal,
    RegexSyntaxError,
    SemilinearMembership,
    Star,
    Union,
    compile_ast,
    compile_regex,
    nfa_matches,
    parse_regex,
    print_regex,
)

UPTO = 64


def lang_upto(ast, limit=UPTO):
    """Set-valued semantics, computed directly on the AST (test oracle)."""
    if isinstance(ast, Literal):
        return {ast.count} if ast.count <= limit else set()
    if isinstance(ast, Union):
        out = set()
        for part in ast.parts:
            out |= lang_upto(part, limit)
        return out
    if isinstance(ast, Concat):
        acc = {0}
        for part in ast.parts:
            sub = lang_upto(part, limit)
            acc = {x + y for x in acc for y in sub if x + y <= limit}
            if not acc:
                return set()
        return acc
    if isinstance(ast, Star):
        sub = lang_upto(ast.child, limit) - {0}
        acc, frontier = {0}, {0}
        while frontier:
            nxt = {x + y for x in frontier for y in sub if x + y <= limit} - acc
            acc |= nxt
            frontier = nxt
        return acc
    raise TypeError(ast)


def members(m):
    """The counts a compiled guard accepts in its window [low, threshold + period)."""
    return [m.low + i for i, bit in enumerate(m.bits) if bit == "1"]


# --- parsing ---------------------------------------------------------------


def test_parse_shapes():
    assert parse_regex("a") == Literal(1)
    assert parse_regex("a^2") == Literal(2)
    assert parse_regex("a^13") == Literal(13)
    assert parse_regex("aa") == Literal(2)
    assert parse_regex("a^2a^3") == Literal(5)
    assert parse_regex("a(aa)*") == Concat((Literal(1), Star(Literal(2))))
    assert parse_regex("a*") == Star(Literal(1))
    assert parse_regex("a|a^2") == Union((Literal(1), Literal(2)))
    assert parse_regex("(a|a^2)a") == Concat(
        (Union((Literal(1), Literal(2))), Literal(1))
    )
    assert parse_regex("a^0*") == Star(Literal(0))


@pytest.mark.parametrize(
    "src,offset",
    [
        ("", 0),
        ("b", 0),
        ("a^", 2),
        ("a^x", 2),
        ("(a", 2),
        ("a)", 1),
        ("a||a", 2),
        ("a^0", 0),
        ("(a^0)*", 1),
        ("*", 0),
        ("a^2)", 3),
    ],
)
def test_parse_errors_carry_offsets(src, offset):
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex(src)
    assert exc.value.offset == offset


def test_nesting_deeper_than_limit_is_a_syntax_error():
    def nested(depth):
        return "(" * depth + "a" + ")" * depth + "*"

    assert parse_regex(nested(MAX_NESTING)) == Star(Literal(1))
    assert parse_regex(nested(MAX_NESTING // 2) * 3) == parse_regex("a*a*a*")
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex(nested(MAX_NESTING + 1))
    assert exc.value.offset == MAX_NESTING


# (a^31)*|...|(a^17)* has a period of 6.7 million; the ladder
# (a^2000|a^2001|a^2002)* misses every count up to about 2 million
COPRIME = "(a^31)*|(a^29)*|(a^23)*|(a^19)*|(a^17)*"
LADDER = "(" + "|".join(f"a^{k}" for k in range(2000, 2003)) + ")*"


@pytest.mark.parametrize(
    "src",
    [
        f"(a^{MAX_WALK + 1})*",
        f"a|a^{10**20 - 1}",
        f"(a^{MAX_WALK // 2 + 1}a^{MAX_WALK // 2})*",
        f"a^{MAX_WALK // 2}|a^{MAX_WALK}",
        LADDER,
        COPRIME,
    ],
    ids=["star-chain", "huge-alternative", "merged-star-chain", "union-chains", "ladder", "coprime"],
)
def test_guards_over_walk_budget_refused(src):
    # the refusal is of the whole guard, so it carries offset 0
    with pytest.raises(RegexSyntaxError, match=f"more than {MAX_WALK} positions") as exc:
        compile_regex(src)
    assert exc.value.offset == 0


def test_guards_within_walk_budget_or_lone_compile(monkeypatch):
    # a lone literal never composes, whatever its length
    k = 2 * MAX_WALK
    assert compile_regex(f"a^{MAX_WALK}a^{MAX_WALK}") == SemilinearMembership(k + 1, 1, k, "10")
    assert compile_regex(f"(a^{10**20 - 1})").threshold == 10**20
    # a literal inside may spell the budget's count of a's, and each set built
    # from it may span that many positions (a smaller budget here)
    monkeypatch.setattr(regex, "MAX_WALK", 5000)
    assert compile_regex("(a^5000)*").period == 5000
    assert compile_regex("a^4998|a").threshold == 4999
    for src in ("(a^5001)*", "a^4999|a"):  # a^4999|a spans 5,001 positions
        with pytest.raises(RegexSyntaxError, match="store more than 5000 positions"):
            compile_regex(src)


def test_literal_merge_only_for_adjacent_unstarred():
    # a* a must not merge; a (aa)* must not merge
    assert parse_regex("a*a") == Concat((Star(Literal(1)), Literal(1)))
    assert parse_regex("a(aa)*a") == Concat(
        (Literal(1), Star(Literal(2)), Literal(1))
    )


# --- printing --------------------------------------------------------------


def test_print_canonical_forms():
    assert print_regex(parse_regex("a")) == "a"
    assert print_regex(parse_regex("a^2")) == "a^2"
    assert print_regex(parse_regex("aa")) == "a^2"
    # '*' binds to the preceding base, so no parens are needed here
    assert print_regex(parse_regex("a(aa)*")) == "aa^2*"
    assert parse_regex("aa^2*") == parse_regex("a(aa)*")
    assert print_regex(parse_regex("a|aa|aaa")) == "a|a^2|a^3"
    assert print_regex(parse_regex("(a|a^2)a^3*")) == "(a|a^2)a^3*"


# --- compiled membership ---------------------------------------------------


def test_odd_counts_language():
    # guard used for "unbounded odd number of spikes"
    m = compile_regex("a(aa)*")
    assert [m.matches(n) for n in range(8)] == [
        False, True, False, True, False, True, False, True,
    ]
    assert m.period == 2
    # threshold is minimal: parity alone decides membership from n=0 on
    assert m.threshold == 0
    assert members(m) == [1]  # from the threshold on: an infinite language


def test_singleton_and_finite_languages():
    m2 = compile_regex("a^2")
    assert m2 == SemilinearMembership(3, 1, 2, "10")
    assert m2.is_singleton(2)
    assert not m2.is_singleton(1)
    mu = compile_regex("a|a^3")
    assert (mu.threshold, mu.period, members(mu)) == (4, 1, [1, 3])  # nothing from 4 on
    assert not mu.is_singleton(1)
    infinite = compile_regex("a|a^5a*")  # 1 below the threshold, but 5, 6, ... accepted too
    assert (infinite.threshold, members(infinite)) == (5, [1, 5])
    assert not infinite.is_singleton(1)


def test_star_zero_accepts_everything_in_multiples():
    m = compile_regex("a^3*")
    assert [n for n in range(13) if m.matches(n)] == [0, 3, 6, 9, 12]
    m0 = compile_regex("a^0*")
    assert m0 == SemilinearMembership(1, 1, 0, "10") and m0.is_singleton(0)


def test_threshold_and_period_are_minimal():
    # language {1} u {3,5,7,...}: periodic part is odd numbers from 3
    m = compile_regex("a|a^3(a^2)*")
    accept = [n for n in range(12) if m.matches(n)]
    assert accept == [1, 3, 5, 7, 9, 11]
    assert m.period == 2
    assert m.threshold == 0  # odd-parity rule already holds at n=0,1,2
    # language {0,1} u {2k : k>=1} needs a real tail
    m2 = compile_regex("a^0*|a|(aa)(aa)*")
    assert [n for n in range(9) if m2.matches(n)] == [0, 1, 2, 4, 6, 8]
    assert m2.period == 2
    assert m2.threshold == 2
    assert members(m2) == [0, 1, 2]  # 0 and 1 below the threshold, then the evens


def test_matches_rejects_negative():
    m = compile_regex("a")
    with pytest.raises(ValueError):
        m.matches(-1)
    with pytest.raises(ValueError):
        nfa_matches(parse_regex("a"), -1)


def test_compiled_guard_matches():
    m = compile_regex("a^2(a)*")
    assert m.matches(2) and m.matches(5) and not m.matches(1)


# --- randomized agreement between the three routes -------------------------

asts = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=1, max_value=5).map(Literal),
        st.just(Star(Literal(0))),  # a^0*: the one literal with no positions
        st.lists(asts, min_size=2, max_size=3).map(lambda ps: Concat(tuple(ps))),
        st.lists(asts, min_size=2, max_size=3).map(lambda ps: Union(tuple(ps))),
        asts.map(Star),
    )
)


@given(ast=asts, n=st.integers(min_value=0, max_value=UPTO))
@settings(max_examples=200, deadline=None)
def test_three_routes_agree(ast, n):
    want = n in lang_upto(ast)
    assert nfa_matches(ast, n) == want
    assert compile_ast(ast).matches(n) == want


@given(k=st.integers(min_value=0, max_value=300), n=st.integers(min_value=0, max_value=400))
@settings(max_examples=200, deadline=None)
def test_literal_lasso_matches_nfa_route(k, n):
    m = compile_ast(Literal(k))
    # a one-part Concat composes the literal's own bits
    via_nfa = compile_ast(Concat((Literal(k),)))
    assert m == via_nfa == SemilinearMembership(k + 1, 1, k, "10")
    assert m.matches(n) == nfa_matches(Literal(k), n) == (n == k)


def test_literal_guard_compiles_without_nfa(monkeypatch):
    def no_nfa(ast):
        raise AssertionError(f"{print_regex(ast)} was expanded into positions")

    monkeypatch.setattr(regex, "_positions", no_nfa)
    m = compile_regex("a^3000000")
    assert m == SemilinearMembership(3000001, 1, 3000000, "10") and m.state_count == 3000002
    assert m.matches(3000000) and not m.matches(2999999) and not m.matches(3000001)
    # everything else composes lassos too: only nfa_matches takes the positions
    assert compile_regex("a^3*") == compile_regex("(a^6)*|a^3(a^6)*")


def from_lasso(m):
    """A regex for the language of a compiled lasso: each accepted count
    below the threshold, and each one from it on followed by a starred
    period."""
    parts = [
        Literal(n) if n < m.threshold else Concat((Literal(n), Star(Literal(m.period))))
        for n in members(m)
    ]
    return parts[0] if len(parts) == 1 else Union(tuple(parts))


def test_equal_languages_compile_to_equal_lassos():
    # all counts, once as a* and once as evens | odds
    assert compile_regex("a*") == compile_regex("(aa)*|a(aa)*")
    assert compile_regex("a^2*") == compile_regex("(a^2|a^4)*")


@given(ast=asts)
@example(ast=parse_regex("(aa)*|a(aa)*"))
@example(ast=parse_regex("a*"))
@settings(max_examples=100, deadline=None)
def test_lasso_is_canonical(ast):
    m = compile_ast(ast)
    # the window runs from the least member to the end of the first period
    assert len(m.bits) == m.threshold + m.period - m.low and m.bits[0] == "1"
    assert compile_ast(Union((ast, ast))) == m
    rebuilt = compile_ast(from_lasso(m))
    assert rebuilt == m and hash(rebuilt) == hash(m)


@given(ast=asts)
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip_preserves_language(ast):
    reparsed = parse_regex(print_regex(ast))
    assert compile_ast(reparsed) == compile_ast(ast)
    # printing is a fixpoint on the reparsed tree
    assert print_regex(parse_regex(print_regex(reparsed))) == print_regex(reparsed)


@given(ast=asts)
@settings(max_examples=100, deadline=None)
def test_compiled_table_is_ultimately_periodic_and_minimal(ast):
    m = compile_ast(ast)
    # table agrees with itself one period later, past the threshold
    for n in range(m.threshold, m.threshold + 3 * m.period):
        assert m.matches(n) == m.matches(n + m.period)
    # no smaller period works on the sampled window
    for p in range(1, m.period):
        window = range(m.threshold, m.threshold + 6 * m.period)
        if all(m.matches(n) == m.matches(n + p) for n in window):
            pytest.fail(f"period {m.period} not minimal, {p} fits")


def nfa_members(ast, upto: int) -> list[int]:
    """The counts up to upto that the position automaton accepts, in one run."""
    ends, end = regex._positions(ast)
    frontier, accepted = frozenset({-1}), []
    for n in range(upto + 1):
        frontier, accept = regex._follow(frontier, ends, end)
        if accept:
            accepted.append(n)
    return accepted


@given(ast=asts, n=st.integers(min_value=0, max_value=UPTO))
@example(ast=Literal(1), n=1)
@example(ast=Literal(7), n=6)
@example(ast=Literal(MAX_WALK + 1), n=MAX_WALK + 1)  # never composed
@example(ast=Star(Literal(0)), n=0)
@settings(max_examples=200, deadline=None)
def test_is_singleton_iff_nfa_accepts_one_count(ast, n):
    # a count past threshold + period is accepted iff one a period earlier is
    m = compile_ast(ast)
    accepted = nfa_members(ast, m.state_count + m.period)
    for k in {n, 0, *accepted}:
        assert m.is_singleton(k) == (accepted == [k]), k


# --- differential test against the Thompson construction -------------------
#
# The epsilon-NFA route that the position automaton replaced, kept as the
# reference.  States are integers.  eps[q] lists epsilon successors, step[q]
# lists successors on reading one 'a'.  A fragment is (entry, exit); exit has
# no outgoing edges inside the fragment.


def thompson_nfa(ast):
    eps: list[list[int]] = []
    step: list[list[int]] = []

    def new_state() -> int:
        eps.append([])
        step.append([])
        return len(eps) - 1

    def frag(node) -> tuple[int, int]:
        if isinstance(node, Literal):
            entry = new_state()
            cur = entry
            for _ in range(node.count):
                nxt = new_state()
                step[cur].append(nxt)
                cur = nxt
            return entry, cur
        if isinstance(node, Concat):
            entry, out = frag(node.parts[0])
            for part in node.parts[1:]:
                e2, out2 = frag(part)
                eps[out].append(e2)
                out = out2
            return entry, out
        if isinstance(node, Union):
            entry = new_state()
            out = new_state()
            for part in node.parts:
                e, x = frag(part)
                eps[entry].append(e)
                eps[x].append(out)
            return entry, out
        if isinstance(node, Star):
            entry = new_state()
            out = new_state()
            e, x = frag(node.child)
            eps[entry].append(e)
            eps[entry].append(out)
            eps[x].append(e)
            eps[x].append(out)
            return entry, out
        raise TypeError(f"not a regex node: {node!r}")

    entry, out = frag(ast)
    return eps, step, entry, out


def thompson_closure(eps, states: frozenset[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for r in eps[q]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def thompson_run(ast) -> tuple[list[bool], int]:
    """The determinized run: acceptance per subset state, and where it loops."""
    eps, step, entry, out = thompson_nfa(ast)
    start = thompson_closure(eps, frozenset([entry]))
    seen: dict[frozenset[int], int] = {start: 0}
    accepts: list[bool] = [out in start]
    frontier = start
    while True:
        frontier = thompson_closure(
            eps, frozenset(r for q in frontier for r in step[q])
        )
        if frontier in seen:
            return accepts, seen[frontier]
        seen[frontier] = len(accepts)
        accepts.append(out in frontier)


def thompson_compile(ast) -> tuple[SemilinearMembership, int]:
    return run_lasso(*thompson_run(ast))


def run_lasso(accepts: list[bool], loop_start: int) -> tuple[SemilinearMembership, int]:
    """The minimal lasso of a determinized run, given its acceptance per
    subset state and the state the last one steps back to, and the run's
    number of states."""
    t_raw, p_raw = loop_start, len(accepts) - loop_start
    cyc = accepts[t_raw:]
    period = next(
        p
        for p in range(1, p_raw + 1)
        if p_raw % p == 0 and all(cyc[i] == cyc[i % p] for i in range(p_raw))
    )
    threshold = t_raw
    while threshold > 0 and accepts[threshold - 1] == cyc[(threshold - 1 - t_raw) % period]:
        threshold -= 1
    low = accepts.index(True)  # a least member lies below t_raw + p_raw
    window = "".join("01"[acc] for acc in accepts[low : threshold + period])
    return SemilinearMembership(threshold, period, low, window), len(accepts)


def thompson_matches(ast, n: int) -> bool:
    """Step the epsilon-NFA n times, closing under epsilon after each step."""
    eps, step, entry, out = thompson_nfa(ast)
    frontier = thompson_closure(eps, frozenset([entry]))
    for _ in range(n):
        frontier = thompson_closure(
            eps, frozenset(r for q in frontier for r in step[q])
        )
    return out in frontier


@given(ast=asts)
@example(ast=Concat((Star(Literal(0)), Literal(2))))
@example(ast=Star(Concat((Star(Literal(1)), Literal(2)))))
@example(ast=Concat((Literal(1), Star(Literal(1)), Star(Literal(2)), Star(Literal(0)))))
@example(ast=Star(Star(Union((Literal(2), Star(Literal(3)))))))
@settings(max_examples=300, deadline=None)
def test_positions_agree_with_thompson_reference(ast):
    (walked, walked_states), (ref, ref_states) = walk_compile(ast), thompson_compile(ast)
    assert walked == ref == compile_ast(ast)
    assert walked_states == ref_states
    for n in range(UPTO + 1):
        assert nfa_matches(ast, n) == thompson_matches(ast, n), n


def walk_compile(ast, budget=MAX_WALK) -> tuple[SemilinearMembership, int]:
    """The subset walk that compile_ast replaced, kept as the reference:
    determinize the position automaton, then extract the minimal lasso and
    the walk's number of states.  Raises RegexSyntaxError if the stored
    frontiers would hold more than budget positions in all."""
    if isinstance(ast, Literal) and ast.count >= 0:
        k = ast.count
        return SemilinearMembership(k + 1, 1, k, "10"), k + 2
    ends, end = regex._positions(ast)
    over = f"compiling would store more than {budget} positions"
    if max(ends) >= budget:  # each position shows up in some stored frontier
        raise RegexSyntaxError(over, 0)
    seen: dict[frozenset[int], int] = {}
    accepts: list[bool] = []
    frontier = frozenset({-1})  # "nothing read": no later frontier holds -1
    held = -1  # positions in the stored frontiers; the start marker is none
    while frontier not in seen:
        held += len(frontier)
        if held > budget:
            raise RegexSyntaxError(over, 0)
        seen[frontier] = len(accepts)
        frontier, accept = regex._follow(frontier, ends, end)
        accepts.append(accept)
    return run_lasso(accepts, seen[frontier])


def held(ast) -> int:
    """Positions in the distinct frontiers of the walk, the start marker aside."""
    ends, end = regex._positions(ast)
    frontier, frontiers = frozenset({-1}), set()
    while frontier not in frontiers:
        frontiers.add(frontier)
        frontier = regex._follow(frontier, ends, end)[0]
    return sum(map(len, frontiers)) - 1


@given(ast=asts)
@example(ast=Literal(5))
@example(ast=Star(Literal(0)))
@example(ast=parse_regex("(a^5)*|(a^4)*|(a^3)*"))  # 12 positions, 180 held
@settings(max_examples=200, deadline=None)
def test_walk_budget_refuses_exactly_past_held_positions(ast):
    need, ref = held(ast), thompson_compile(ast)  # the lasso and the run's state count
    for budget in (0, 3, 40):
        if need > budget and not isinstance(ast, Literal):
            with pytest.raises(RegexSyntaxError):
                walk_compile(ast, budget)
        else:
            assert walk_compile(ast, budget) == ref


@pytest.mark.parametrize("budget", [0, 3, 40, MAX_WALK])
def test_positions_past_budget_refused_before_walking(monkeypatch, budget):
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(regex, "_follow", no_walk)
    monkeypatch.setattr(regex, "MAX_WALK", budget)
    with pytest.raises(RegexSyntaxError):
        compile_regex(f"(a^{budget + 1})*")


# literals up to a few thousand, nullable parts, a^0* and starred unions of
# coprime lengths: the shapes whose lassos the composition builds from bits
wide_asts = st.recursive(
    st.one_of(
        st.integers(min_value=1, max_value=3000).map(Literal),
        st.integers(min_value=1, max_value=12).map(Literal),
        st.just(Star(Literal(0))),
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=2, max_size=3, unique=True).map(
            lambda ks: Union(tuple(Star(Literal(k)) for k in ks))
        ),
    ),
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda ps: Concat(tuple(ps))),
        st.lists(kids, min_size=2, max_size=3).map(lambda ps: Union(tuple(ps))),
        kids.map(Star),
    ),
    max_leaves=5,
)


@given(ast=wide_asts, data=st.data())
@example(ast=parse_regex("(a^7)*|(a^5)*|(a^3)*"), data=None)
@example(ast=parse_regex("(a^0*|a^40)(a^3|a*)(a^2999|a^0*)"), data=None)
@example(ast=parse_regex("(a^2)*(a^3)*"), data=None)  # periodic only from 2
@example(ast=parse_regex("((a^97a^12)*|a^80(a^23)*)(a^230)*a^5"), data=None)
@settings(max_examples=120, deadline=None)
def test_composition_agrees_with_walk_and_positions(ast, data):
    try:
        walked = walk_compile(ast, 200000)[0]  # a smaller budget, to keep walks short
    except RegexSyntaxError:
        walked = None
    try:
        m = compile_ast(ast)
    except RegexSyntaxError:
        m = None
    if walked is not None:  # the composition refuses no guard the walk takes
        assert m == walked
    if m is not None:
        edge = min(m.threshold + 2 * m.period, 4000)
        counts = {0, 1, min(m.threshold, edge), edge}
        if data is not None:
            counts.add(data.draw(st.integers(min_value=0, max_value=edge)))
        for n in counts:
            assert m.matches(n) == nfa_matches(ast, n), n


@pytest.mark.parametrize(
    "src",
    [
        "(a^700|a^701)*",
        "(a^700|a^701)*(a^690|a^691)*",
        "(a^300000|a^300001)*(a^299999)*",
        "(a^300000)*",
        "(a^999999)*|a",
        COPRIME,
        "(" + "|".join(f"a^{k}" for k in range(1, 401)) + ")*",
        "(a^1000)*|(a^999)*",
        "(a^999)*(a^1000)*",
        "a^500000|a^500001",
        # the guard families of the static benchmark
        "a^3a*",
        "a^2(aa)*",
        "a^3(a^23|a^29)*",
    ],
)
def test_every_guard_compiles_without_positions(monkeypatch, src):
    def no_positions(*args):
        raise AssertionError("the position automaton was built")

    monkeypatch.setattr(regex, "_positions", no_positions)
    monkeypatch.setattr(regex, "_follow", no_positions)
    try:
        compile_regex(src)
    except RegexSyntaxError as exc:
        assert exc.offset == 0


def test_composed_lassos_of_known_monoids():
    ladder = compile_regex("(" + "|".join(f"a^{k}" for k in range(1, 401)) + ")*")
    assert ladder == compile_regex("a*")
    # the Frobenius number of <x, y> is xy - x - y (Sylvester 1884)
    m = compile_regex("(a^999)*(a^1000)*")
    assert (m.threshold, m.period) == (999 * 1000 - 999 - 1000 + 1, 1)
    assert not m.matches(m.threshold - 1) and m.matches(999 + 1000)
    m = compile_regex("(a^700|a^701)*")
    assert (m.threshold, m.period, m.state_count) == (700 * 701 - 700 - 701 + 1, 1, 489301)
    # a union is periodic with the lcm of the parts' periods
    assert compile_regex("(a^1000)*|(a^999)*").period == 999000
    assert members(compile_regex("a^500000|a^500001")) == [500000, 500001]
    assert compile_regex("(a^300000)*").state_count == 300000


@pytest.mark.parametrize("src", ["(a^999)*(a^1000)*", "(a^700|a^701)*"])
def test_long_lasso_compiles_in_small_memory(src):
    # windows of 997,003 and 489,301 counts: one character each, not one object
    tracemalloc.start()
    try:
        compile_regex(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def stored(ends) -> int:
    """Items held by the distinct sets reachable from the literal cells."""
    todo, seen, total = list(ends.values()), set(), 0
    while todo:
        items = todo.pop()
        if id(items) not in seen:
            seen.add(id(items))
            total += len(items)
            todo.extend(x for x in items if not isinstance(x, int))
    return total


@pytest.mark.parametrize(
    "src",
    ["a*" * 30000, "(" + "|".join(["a"] * 30000) + ")*", "(" + "a*" * 30000 + ")*"],
    ids=["stars", "starred-union", "starred-stars"],
)
def test_position_sets_stay_linear(src):
    # every position may follow every other: copied follow sets would hold
    # 30,000 positions each, 9 * 10^8 entries in all
    ends = regex._positions(parse_regex(src))[0]
    assert len(ends) == 30000 + 1 and stored(ends) <= 6 * 30000  # a literal each, and the start
    m = compile_regex(src)
    assert m == SemilinearMembership(0, 1, 0, "1") and m.state_count == 1


@pytest.mark.parametrize("src", ["(a*)*", "((a*)*)*", "(((a*)*)*)*"])
def test_starred_star_links_once(src):
    ends, end = regex._positions(parse_regex(src))
    assert ends[0] == [0, end] and ends[0][1] is end  # 0 follows itself, once
    assert regex._follow(frozenset({0}), ends, end) == (frozenset({0}), True)


@pytest.mark.parametrize(
    "node, message",
    [
        (Literal(-1), "negative literal count"),
        (Concat(()), "empty concat"),
        (Union(()), "empty union"),
        (Star("a"), "not a regex node"),
    ],
)
def test_malformed_asts_are_refused(node, message):
    with pytest.raises((ValueError, TypeError), match=message):
        compile_ast(node)
    with pytest.raises((ValueError, TypeError), match=message):
        nfa_matches(node, 1)


@given(
    m=st.integers(min_value=2, max_value=40),
    above=st.lists(st.integers(min_value=1, max_value=160), min_size=1, max_size=4),
    j=st.integers(min_value=0, max_value=12),
)
@example(m=4, above=[2], j=0)  # 4 and 6 reach only the even residues
@settings(max_examples=300, deadline=None)
def test_apery_floor_never_exceeds_the_largest_apery_element(m, above, j):
    gens = [m + a for a in above]  # as star passes them, each above m
    assert regex._apery_floor(m, gens, j) <= max(regex._apery(m, gens))


def test_over_budget_star_refused_before_its_round_robin(monkeypatch):
    src = "(a^300000|a^300001)*(a^299999)*"
    assert regex._apery_floor(300000, [300001], MAX_WALK // 300000) == 4 * 300001
    took = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(RegexSyntaxError, match="store more than 1000000 positions"):
            compile_regex(src)
        took.append(time.perf_counter() - start)
    assert min(took) < 0.01, took

    def no_round_robin(*args):
        raise AssertionError("the round robin ran")

    monkeypatch.setattr(regex, "_apery", no_round_robin)
    with pytest.raises(RegexSyntaxError) as exc:
        compile_regex(src)
    assert str(exc.value) == f"compiling would store more than {MAX_WALK} positions (offset 0)"
