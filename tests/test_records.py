"""snpkit's records against the frozen dataclasses they replace.

Each record class is compared with the dataclass that ``@dataclass(frozen=True)``
would make of the same class body, with the options written out here rather
than read back from the record: eq, hash and repr, the field order that
``cli.json_default`` prints, defaults, refusal to assign, and the TypeError
on a missing or extra argument.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from snpkit import engine, formulas, matrices, model, reachability, regex
from snpkit.cli import json_default
from snpkit.regex import Record

RECORDS = sorted(
    (
        obj
        for mod in (regex, model, matrices, engine, reachability, formulas)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
        and obj.__module__ == mod.__name__
    ),
    key=lambda cls: cls.__name__,
)
IDENTITY = {"TreeNode", "TraceTree"}  # eq=False: compare and hash by identity
UNCOMPARED = {
    "Rule": {"guard"},  # field(compare=False, repr=False)
    "SemilinearMembership": {"state_count"},
}
# records whose fields are checked beyond their type: (kwargs, changed kwargs)
SAMPLES = {
    "IntMatrix": (
        {"rows": 1, "cols": 2, "data": ((1, 2),)},
        [{"rows": 1, "cols": 2, "data": ((1, 3),)}, {"rows": 2, "cols": 1, "data": ((1,), (2,))}],
    ),
}


def reference(cls):
    """The frozen dataclass of the record's annotations, defaults and
    ``__post_init__``, with the options above."""
    hidden = UNCOMPARED.get(cls.__name__, set())
    ns = {"__annotations__": dict(cls.__dict__["__annotations__"])}
    for name in ns["__annotations__"]:
        shown = name not in hidden
        default = cls.__dict__.get(name, dataclasses.MISSING)
        ns[name] = dataclasses.field(default=default, compare=shown, repr=shown)
    if "__post_init__" in cls.__dict__:
        ns["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True, eq=cls.__name__ not in IDENTITY)(
        type(cls.__name__, (), ns)
    )


def samples(cls, ref):
    """A base kwargs and variants that each change one field."""
    if cls.__name__ in SAMPLES:
        return SAMPLES[cls.__name__]
    names = [f.name for f in dataclasses.fields(ref)]
    base = {name: (i, "v") for i, name in enumerate(names)}
    return base, [{**base, name: (i, "w")} for i, name in enumerate(names)]


def test_every_record_is_covered():
    assert len(RECORDS) == 24
    assert IDENTITY | set(UNCOMPARED) | set(SAMPLES) <= {cls.__name__ for cls in RECORDS}


def fields_of(obj, names):
    return {name: getattr(obj, name) for name in names}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_like_frozen_dataclass(cls):
    ref = reference(cls)
    names = [f.name for f in dataclasses.fields(ref)]
    base, variants = samples(cls, ref)
    a, ra = cls(**base), ref(**base)
    assert list(json_default(a)) == names
    assert json_default(a) == fields_of(ra, names)
    assert json_default(cls(*base.values())) == json_default(a)
    assert (a == ra) is False  # records of different classes never compare equal

    identity = cls.__name__ in IDENTITY
    for kwargs in [base, *variants]:
        b, rb = cls(**kwargs), ref(**kwargs)
        assert (a == b, a != b) == (ra == rb, ra != rb)
        assert repr(b) == repr(rb)
        if not identity:
            assert hash(b) == hash(rb)
    if identity:
        assert a == a and a != cls(**base)
        assert type(a).__hash__ is object.__hash__ is type(ra).__hash__

    defaults = {f.name for f in dataclasses.fields(ref) if f.default is not dataclasses.MISSING}
    required = {n: v for n, v in base.items() if n not in defaults}
    assert json_default(cls(**required)) == fields_of(ref(**required), names)
    assert repr(cls(**required)) == repr(ref(**required))

    for name in names:
        for obj in (a, ra):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert json_default(a) == fields_of(ra, names)

    for make in (cls, ref):
        with pytest.raises(TypeError):  # one required field missing
            make(**dict(list(required.items())[:-1]))
        with pytest.raises(TypeError):
            make(*base.values(), 0)
        with pytest.raises(TypeError):
            make(**base, extra=0)
        with pytest.raises(TypeError):  # a field given twice
            make(*base.values(), **{names[0]: base[names[0]]})


def test_int_matrix_keeps_its_shape_check():
    for make in (matrices.IntMatrix, reference(matrices.IntMatrix)):
        with pytest.raises(ValueError, match="shape"):
            make(2, 2, ((1, 2),))


def test_rule_guard_stays_out_of_eq_hash_and_repr():
    one = model.make_rule(0, "a^2", 2, 1, 0)
    other = model.Rule(0, "a^2", 2, 1, 0, guard=regex.compile_regex("a^3"))
    assert one == other and hash(one) == hash(other)
    assert repr(one) == "Rule(owner=0, guard_src='a^2', c=2, p=1, d=0)"


def _probe_class():
    class Probe(Record):
        a: int
        b: tuple = ()

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("negative a")

    return Probe


PROBE_CALLS = [
    ((), {}),  # missing argument
    ((1,), {}),  # default
    ((1, (2,)), {}),
    ((), {"b": (2,), "a": 1}),
    ((-1,), {}),  # __post_init__ raises
    ((1, (), 3), {}),  # one too many
    ((1,), {"a": 1}),  # given twice
    ((1,), {"c": 1}),  # unknown keyword
]


def _outcome(cls, args, kwargs):
    try:
        return repr(cls(*args, **kwargs))
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("args, kwargs", PROBE_CALLS)
def test_constructor_compiled_on_first_instance_behaves_the_same(args, kwargs):
    warm = _probe_class()
    warm(0)
    cold = _probe_class()
    assert cold.__init__ is regex._compile_init is not warm.__init__
    assert _outcome(cold, args, kwargs) == _outcome(warm, args, kwargs)
    assert cold.__init__ is not regex._compile_init  # compiled, even on a refusal
    assert _outcome(cold, args, kwargs) == _outcome(warm, args, kwargs)


def test_cli_import_compiles_no_record_constructor():
    code = (
        "import snpkit.cli, snpkit.regex as r\n"
        "seen, stack = [], [r.Record]\n"
        "while stack:\n"
        "    subs = stack.pop().__subclasses__()\n"
        "    seen += subs\n"
        "    stack += subs\n"
        "print(len(seen), [c.__name__ for c in seen if c.__init__ is not r._compile_init])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    # the CLI loads every record but those of formulas, which it never imports
    loaded = [cls for cls in RECORDS if cls.__module__ != formulas.__name__]
    assert proc.stdout == f"{len(loaded)} []\n"
