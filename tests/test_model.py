"""System file parsing, validation, and canonical serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gensys import make_random_system
from snpkit import model
from snpkit.model import (
    SNPSystem,
    SystemParseError,
    make_rule,
    parse_system,
    serialize_system,
    validate,
)
from snpkit.regex import compile_ast, parse_regex


def test_parse_first_golden_system(example1):
    s = example1
    assert s.neuron_names == ("n1", "n2", "n3")
    assert s.initial == (2, 1, 1)
    assert s.neuron_count == 3 and s.rule_count == 5
    assert s.out_neuron == 2 and s.in_neuron is None
    assert s.syn == ((0, 1), (0, 2), (1, 0), (1, 2))
    assert [
        (r.owner, r.guard_src, r.c, r.p, r.d) for r in s.rules
    ] == [
        (0, "a^2", 1, 1, 0),
        (0, "a^2", 2, 1, 0),
        (1, "a", 1, 1, 0),
        (2, "a", 1, 1, 0),
        (2, "a^2", 2, 0, 0),
    ]
    assert s.rules[4].is_forgetting and not s.rules[0].is_forgetting
    assert not s.has_delays
    assert validate(s) == ()


def test_parse_delayed_golden_system(example3):
    s = example3
    assert s.neuron_count == 3 and s.rule_count == 4
    assert s.initial == (1, 0, 1)
    assert tuple(r.d for r in s.rules) == (0, 0, 0, 2)
    assert s.has_delays
    assert s.out_neuron is None
    assert s.syn == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert validate(s) == ()


def test_parse_minimal_and_empty_rule_set():
    s = parse_system("neuron x spikes=0\n")
    assert s.neuron_count == 1 and s.rule_count == 0
    assert validate(s) == ()
    assert parse_system("").neuron_count == 0


def test_comments_whitespace_and_default_guard():
    text = """
    # leading comment
    neuron alpha spikes=3   # trailing comment

    rule alpha c=2 p=1 d=0
    """
    s = parse_system(text)
    assert s.rules[0].guard_src == "a^2"  # E omitted -> a^c
    assert s.rules[0].guard.is_singleton(2)


def test_rule_helpers(example1):
    s = example1
    assert s.rules_of == ((0, 1), (2,), (3, 4))
    assert s.targets_of == ((1, 2), (0, 2), ())
    assert s.rules[0].applicable(2)
    assert not s.rules[0].applicable(1)  # guard a^2 rejects 1
    assert not s.rules[1].applicable(1)  # c=2 needs two spikes


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("neuron x spikes=2\nneuron x spikes=1\n", 2, "duplicate neuron"),
        ("rule x c=1 p=1 d=0\n", 1, "unknown neuron"),
        ("neuron x spikes=1\nsyn x y\n", 2, "unknown neuron"),
        ("neuron x spikes=1\nneuron y spikes=0\nsyn x y\nsyn x y\n", 4, "duplicate synapse"),
        ("neuron x spikes=1\nout x\nout x\n", 3, "already designated"),
        ("neuron x spikes=1\nin x\nin x\n", 3, "already designated"),
        ("neuron x spikes=-1\n", 1, "unsigned"),
        ("neuron x\n", 1, "expected: neuron"),
        ("neuron 2x spikes=1\n", 1, "bad neuron name"),
        ("frobnicate x\n", 1, "unknown directive"),
        ("neuron x spikes=1\nrule x c=1 p=1\n", 2, "expected: rule"),
        ("neuron x spikes=1\nrule x E=a^ c=1 p=1 d=0\n", 2, "bad guard regex"),
        ("neuron x spikes=1\nsyn x\n", 2, "expected: syn"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(SystemParseError) as exc:
        parse_system(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_self_synapse_parses_but_fails_validation():
    s = parse_system("neuron x spikes=1\nsyn x x\n")
    assert "self-synapse" in [e.code for e in validate(s)]


def test_forgetting_exclusion_detected():
    text = (
        "neuron x spikes=2\n"
        "rule x E=a*a c=1 p=1 d=0\n"  # guard accepts every n >= 1
        "rule x c=2 p=0 d=0\n"  # forgets a^2, but a^2 matches the guard above
    )
    assert "forgetting-exclusion" in [e.code for e in validate(parse_system(text))]


def test_forgetting_rule_shape_violations():
    base = "neuron x spikes=1\n"
    r = validate(parse_system(base + "rule x c=1 p=0 d=3\n"))
    assert "forgetting-delay" in [e.code for e in r]
    r = validate(parse_system(base + "rule x E=aa* c=1 p=0 d=0\n"))
    assert "forgetting-guard" in [e.code for e in r]


def test_consume_produce_ordering():
    r = validate(parse_system("neuron x spikes=1\nrule x E=a c=1 p=2 d=0\n"))
    assert "consume-lt-produce" in [e.code for e in r]
    r = validate(parse_system("neuron x spikes=1\nrule x E=a c=0 p=0 d=0\n"))
    assert "consume-zero" in [e.code for e in r]


def test_validate_handcrafted_out_of_range():
    s = SNPSystem(
        neuron_names=("x",),
        initial=(-1,),
        rules=(make_rule(3, None, 1, 1, 0),),
        syn=((0, 5),),
        out_neuron=7,
        in_neuron=None,
    )
    codes = [e.code for e in validate(s)]
    assert {"negative-spikes", "bad-owner", "bad-synapse", "bad-out"} <= set(codes)


@pytest.mark.parametrize("owner", [5, -1])
@pytest.mark.parametrize("forgetting_in", [0, 1])
def test_out_of_range_owner_is_only_reported(owner, forgetting_in):
    # an owner past the last neuron must not index rules_of, and a negative
    # one must not file the rule under the last neuron, beside its forgetting
    # rule, where the exclusion check would see it
    s = SNPSystem(
        ("a", "b"),
        (1, 1),
        (make_rule(forgetting_in, None, 1, 0, 0), make_rule(owner, None, 1, 1, 0)),
        (),
    )
    assert [e.code for e in validate(s)] == ["bad-owner"]
    assert s.rules_of == (((0,), ()) if forgetting_in == 0 else ((), (0,)))


def test_serialize_is_canonical_and_round_trips(example1_text, example3_text):
    for text in (example1_text, example3_text, "neuron q spikes=0\n"):
        s = parse_system(text)
        out = serialize_system(s)
        assert parse_system(out) == s
        # canonical: serializing again is byte-identical
        assert serialize_system(parse_system(out)) == out


def test_serialize_normalizes_guard_spelling():
    a = parse_system("neuron x spikes=1\nrule x E=aa c=2 p=1 d=0\n")
    b = parse_system("neuron x spikes=1\nrule x E=a^2 c=2 p=1 d=0\n")
    assert a == b
    assert serialize_system(a) == serialize_system(b)
    assert "E=a^2" in serialize_system(a)


def test_each_distinct_guard_is_compiled_once_per_file(monkeypatch):
    compiled = []

    def counting(ast):
        compiled.append(ast)
        return compile_ast(ast)

    monkeypatch.setattr(model, "compile_ast", counting)
    text = (
        "neuron x spikes=1\nneuron y spikes=0\n"
        "rule x E=aa c=2 p=1 d=0\nrule x E=a^2 c=1 p=1 d=0\nrule y c=2 p=0 d=0\n"
        "rule x E=a(a^2)* c=1 p=1 d=0\nrule y E=a(aa)* c=1 p=1 d=0\n"
    )
    s = parse_system(text)
    assert len(compiled) == 2  # a^2 spelled three ways, a(a^2)* two ways
    assert s.rules[0].guard is s.rules[1].guard is s.rules[2].guard
    assert s.rules[3].guard is s.rules[4].guard
    parse_system(text)  # a new file compiles its own guards
    assert len(compiled) == 4


def test_each_written_guard_is_parsed_once_per_file(monkeypatch):
    parsed, compiled = [], []

    def parsing(src):
        parsed.append(src)
        return parse_regex(src)

    def compiling(ast):
        compiled.append(ast)
        return compile_ast(ast)

    monkeypatch.setattr(model, "parse_regex", parsing)
    monkeypatch.setattr(model, "compile_ast", compiling)
    text = (
        "neuron x spikes=1\nneuron y spikes=0\n"
        + "rule x E=a(aa)* c=1 p=1 d=0\n" * 3
        + "rule y E=a(a^2)* c=1 p=1 d=0\nrule y E=aa^2* c=1 p=1 d=0\n"
        + "rule y c=2 p=0 d=0\n" * 2
        + "rule x E=a^2 c=2 p=1 d=0\n"
    )
    s = parse_system(text)
    # the canonical source aa^2* and the default a^2 need no parse of their own
    assert parsed == ["a(aa)*", "a(a^2)*", "a^2"]
    assert len(compiled) == 2
    assert [r.guard_src for r in s.rules] == ["aa^2*"] * 5 + ["a^2"] * 3
    assert len({id(r.guard) for r in s.rules}) == 2


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_random_systems_validate_and_round_trip(seed):
    s = make_random_system(random.Random(seed), allow_delay=True)
    assert validate(s) == ()
    assert parse_system(serialize_system(s)) == s
