"""Guard regex parsing, printing, and membership compilation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from snpkit import regex
from snpkit.regex import (
    MAX_NESTING,
    MAX_WALK,
    Concat,
    Literal,
    RegexSyntaxError,
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


# (a^31)*|...|(a^17)* has 119 positions and a period of 6.7 million; the
# ladder (a|a^2|...|a^400)* has 80,200 positions and N^3/6 in its frontiers
COPRIME = "(a^31)*|(a^29)*|(a^23)*|(a^19)*|(a^17)*"
LADDER = "(" + "|".join(f"a^{k}" for k in range(1, 401)) + ")*"


@pytest.mark.parametrize(
    "src",
    [
        f"(a^{MAX_WALK + 1})*",
        f"a|a^{10**20 - 1}",
        f"(a^{MAX_WALK // 2 + 1}a^{MAX_WALK // 2})*",
        f"a^{MAX_WALK // 2}|a^{MAX_WALK // 2}a",
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
    # a lone literal never walks, whatever its length
    assert compile_regex(f"a^{MAX_WALK}a^{MAX_WALK}").tail == frozenset((2 * MAX_WALK,))
    assert compile_regex(f"(a^{10**20 - 1})").threshold == 10**20
    # (a^k)* stores the frontiers {0}, ..., {k - 1}: k positions, at most the
    # budget (a smaller one here, to keep the walk short)
    monkeypatch.setattr(regex, "MAX_WALK", 5000)
    assert compile_regex("(a^5000)*").period == 5000
    with pytest.raises(RegexSyntaxError):
        compile_regex("(a^5001)*")


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
    assert m.finite_language() is None


def test_singleton_and_finite_languages():
    m2 = compile_regex("a^2")
    assert m2.finite_language() == frozenset([2])
    assert m2.is_singleton(2)
    assert not m2.is_singleton(1)
    mu = compile_regex("a|a^3")
    assert mu.finite_language() == frozenset([1, 3])
    assert not mu.is_singleton(1)


def test_star_zero_accepts_everything_in_multiples():
    m = compile_regex("a^3*")
    assert [n for n in range(13) if m.matches(n)] == [0, 3, 6, 9, 12]
    m0 = compile_regex("a^0*")
    assert m0.finite_language() == frozenset([0])


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
    assert m2.tail == frozenset((0, 1))


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
    # a one-part Concat builds the literal's own positions and walks them
    via_nfa = compile_ast(Concat((Literal(k),)))
    assert m == via_nfa and m.state_count == via_nfa.state_count
    assert m.matches(n) == nfa_matches(Literal(k), n) == (n == k)


def test_literal_guard_compiles_without_nfa(monkeypatch):
    def no_nfa(ast):
        raise AssertionError(f"{print_regex(ast)} was expanded into positions")

    monkeypatch.setattr(regex, "_positions", no_nfa)
    m = compile_regex("a^3000000")
    assert (m.threshold, m.period, m.cycle, m.state_count) == (3000001, 1, (False,), 3000002)
    assert m.tail == m.finite_language() == frozenset((3000000,))
    assert m.matches(3000000) and not m.matches(2999999) and not m.matches(3000001)
    with pytest.raises(AssertionError):  # everything else still takes the positions
        compile_regex("a^3*")


def from_lasso(m):
    """A regex for the language of a compiled lasso: each tail count, and
    each accepted residue of the cycle followed by a starred period."""
    parts = [Literal(n) for n in sorted(m.tail)]
    parts += [
        Concat((Literal(m.threshold + i), Star(Literal(m.period))))
        for i, acc in enumerate(m.cycle)
        if acc
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
    assert len(m.cycle) == m.period
    assert m.tail <= set(range(m.threshold))
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


def thompson_compile(ast) -> regex.SemilinearMembership:
    accepts, loop_start = thompson_run(ast)
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
    off = (threshold - t_raw) % period
    return regex.SemilinearMembership(
        threshold=threshold,
        period=period,
        tail=frozenset(n for n in range(threshold) if accepts[n]),
        cycle=tuple(cyc[(off + i) % p_raw] for i in range(period)),
        state_count=len(accepts),
    )


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
    m, ref = compile_ast(ast), thompson_compile(ast)
    assert m == ref
    assert m.state_count == ref.state_count
    for n in range(UPTO + 1):
        assert nfa_matches(ast, n) == thompson_matches(ast, n), n


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
    need, ref = held(ast), thompson_compile(ast)
    for budget in (0, 3, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regex, "MAX_WALK", budget)
            if need > budget and not isinstance(ast, Literal):
                with pytest.raises(RegexSyntaxError):
                    compile_ast(ast)
            else:
                m = compile_ast(ast)
                assert m == ref and m.state_count == ref.state_count


@pytest.mark.parametrize("budget", [0, 3, 40, MAX_WALK])
def test_positions_past_budget_refused_before_walking(monkeypatch, budget):
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(regex, "_follow", no_walk)
    monkeypatch.setattr(regex, "MAX_WALK", budget)
    with pytest.raises(RegexSyntaxError):
        compile_regex(f"(a^{budget + 1})*")


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
    assert (m.threshold, m.period, m.tail, m.cycle, m.state_count) == (0, 1, frozenset(), (True,), 2)


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
