"""Random valid-system generator shared by the property suites.

Systems are built constraint-first (forgetting amounts always checked
against sibling guards) so every emitted system passes validate().
Determinism comes from the caller-supplied Random instance.
"""

import random

from snpkit.model import SNPSystem, make_rule, validate

# guard templates: (source producer, description)
_GUARDS = [
    lambda c: None,  # default singleton a^c
    lambda c: ("a" if c == 1 else f"a^{c}") + "a*",  # >= c
    lambda c: ("a" if c == 1 else f"a^{c}") + "(aa)*",  # c, c+2, ...
    lambda c: "a(aa)*",  # odd counts
]


def make_random_system(
    rng: random.Random,
    max_neurons: int = 5,
    max_rules: int = 8,
    max_spikes: int = 5,
    allow_delay: bool = False,
    max_delay: int = 2,
    with_out: bool | None = None,
    min_neurons: int = 1,
) -> SNPSystem:
    m = rng.randint(min_neurons, max_neurons)
    names = tuple(f"n{j + 1}" for j in range(m))
    initial = tuple(rng.randint(0, max_spikes) for _ in range(m))

    syn = tuple(
        (a, b)
        for a in range(m)
        for b in range(m)
        if a != b and rng.random() < 0.4
    )

    rules = []
    per_neuron: dict[int, list] = {j: [] for j in range(m)}
    for _ in range(rng.randint(0, max_rules)):
        owner = rng.randrange(m)
        siblings = per_neuron[owner]
        rule = None
        for _attempt in range(8):
            if rng.random() < 0.25:
                # forgetting: amount must avoid every sibling spiking guard
                s = rng.randint(1, 4)
                if any(not r.is_forgetting and r.guard.matches(s) for r in siblings):
                    continue
                if any(r.is_forgetting and r.c == s for r in siblings):
                    continue
                rule = make_rule(owner, None, s, 0, 0)
            else:
                c = rng.randint(1, 4)
                p = rng.randint(1, c)
                d = rng.randint(0, max_delay) if allow_delay else 0
                guard_src = rng.choice(_GUARDS)(c)
                candidate = make_rule(owner, guard_src, c, p, d)
                # must not cover any sibling forgetting amount
                if any(
                    r.is_forgetting and candidate.guard.matches(r.c)
                    for r in siblings
                ):
                    continue
                rule = candidate
            break
        if rule is not None:
            siblings.append(rule)
            rules.append(rule)

    if with_out is None:
        with_out = rng.random() < 0.5
    sys = SNPSystem(
        neuron_names=names,
        initial=initial,
        rules=tuple(rules),
        syn=syn,
        out_neuron=rng.randrange(m) if with_out else None,
        in_neuron=None,
    )
    problems = validate(sys)
    assert not problems, problems
    return sys


def ring_text(n: int) -> str:
    """A ring of n neurons that each hold two spikes and two rules on a^2
    (consume one or both), so every neuron has two applicable rules as
    long as it keeps two spikes; the `first` choice keeps it at two."""
    lines = []
    for i in range(n):
        lines.append(f"neuron n{i} spikes=2")
        lines.append(f"rule n{i} E=a^2 c=1 p=1 d=0")
        lines.append(f"rule n{i} E=a^2 c=2 p=1 d=0")
    lines += [f"syn n{i} n{(i + 1) % n}" for i in range(n)]
    return "\n".join(lines) + "\n"
