"""Guard regex parsing, printing, and membership compilation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from snpkit import regex
from snpkit.regex import (
    MAX_CHAIN,
    MAX_NESTING,
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


@pytest.mark.parametrize(
    "src, offset",
    [
        (f"(a^{MAX_CHAIN + 1})*", 3),
        (f"a|a^{10**20 - 1}", 4),
        (f"(a^{MAX_CHAIN // 2 + 1}a^{MAX_CHAIN // 2})*", 11),
        (f"a^{MAX_CHAIN // 2}|a^{MAX_CHAIN // 2}a", 17),
    ],
)
def test_literals_longer_than_chain_cap_refused_unless_lone(src, offset):
    # an NFA would chain one state per a; the exponent that passes the
    # cap is the offset reported
    with pytest.raises(RegexSyntaxError) as exc:
        parse_regex(src)
    assert exc.value.offset == offset


def test_literals_within_chain_cap_or_lone_parse():
    # parsed only: compiling a million-state chain is what the cap bounds
    assert parse_regex(f"(a^{MAX_CHAIN})*") == Star(Literal(MAX_CHAIN))
    assert parse_regex(f"a^{MAX_CHAIN}a^{MAX_CHAIN}") == Literal(2 * MAX_CHAIN)
    assert parse_regex(f"(a^{10**20 - 1})") == Literal(10**20 - 1)


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
        st.tuples(asts, asts).map(lambda ab: Concat(ab)),
        st.tuples(asts, asts).map(lambda ab: Union(ab)),
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
    # a one-part Concat builds the literal's own NFA chain and walks it
    via_nfa = compile_ast(Concat((Literal(k),)))
    assert m == via_nfa and m.state_count == via_nfa.state_count
    assert m.matches(n) == nfa_matches(Literal(k), n) == (n == k)


def test_literal_guard_compiles_without_nfa(monkeypatch):
    def no_nfa(ast):
        raise AssertionError(f"{print_regex(ast)} was expanded into NFA states")

    monkeypatch.setattr(regex, "_build_nfa", no_nfa)
    m = compile_regex("a^3000000")
    assert (m.threshold, m.period, m.cycle, m.state_count) == (3000001, 1, (False,), 3000002)
    assert m.tail == m.finite_language() == frozenset((3000000,))
    assert m.matches(3000000) and not m.matches(2999999) and not m.matches(3000001)
    with pytest.raises(AssertionError):  # everything else still takes the NFA route
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
