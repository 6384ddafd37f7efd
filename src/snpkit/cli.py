"""Command-line front end.

Subcommands map one-to-one onto the library: validate (semantic checks),
matrices (the five matrix forms), simulate (trace or bounded tree),
analyze (structural report), reach (configuration reachability).

Exit codes: 0 success / target reachable; 1 validation errors found /
target not reachable; 2 usage errors, unreadable or malformed input, or a
stdout closed before all output was written (a broken pipe, as in
``| head -1``).  Flag errors are reported before the system file is read.
Output is byte-deterministic for identical invocations (random policy
requires an explicit seed for exactly this reason).
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from json.encoder import encode_basestring_ascii

from .engine import MODES, POLICIES, Trace, TraceTree, achievable_first_intervals, run_trace
from .matrices import (
    IntMatrix,
    augmented_matrix,
    consumption_matrix,
    production_matrix,
    spiking_matrix,
    struc_matrix,
    structural_report,
)
from .model import Record, ReportEntry, SNPSystem, SystemParseError, parse_system, validate
from .reachability import ReachabilityCertificate, is_reachable, reach_between

__all__ = ["main"]

FORMATS = ("text", "json")


class UsageError(Exception):
    pass


class ValidationFailure(Exception):
    pass


def _config_flag(text: str, flag: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if not part.lstrip("+").isdigit():
                raise ValueError(part)
            out.append(int(part))  # refuses superscripts and over-long numbers
        except ValueError:
            raise UsageError(
                f"--{flag} wants comma-separated nonnegative integers, got {text!r}"
            ) from None
    return tuple(out)


def _check_flags(args: argparse.Namespace) -> None:
    """The flag rules argparse cannot express; parses --target and --from
    in place.  Runs before the system file is read."""
    if args.subcommand == "reach":
        args.target = _config_flag(args.target, "target")
        if args.from_config is not None:
            args.from_config = _config_flag(args.from_config, "from")
    if args.subcommand == "simulate":
        if args.policy == "random" and args.seed is None:
            raise UsageError("policy 'random' requires --seed")
        if args.policy != "random" and args.seed is not None:
            raise UsageError("--seed only makes sense with --policy random")
    for flag in ("steps", "kmax", "vmax"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise UsageError(f"--{flag} must be nonnegative")
    if getattr(args, "vmax", None) is not None and args.from_config is None:
        raise UsageError("--vmax only makes sense with --from")


def _load(path: str) -> SNPSystem:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_system(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    except SystemParseError as exc:  # it carries the line number
        raise UsageError(f"{path}: {exc}") from exc


def _print_entries(path: str, problems: tuple[ReportEntry, ...], file=None) -> None:
    for e in problems:
        print(f"{path}: {e.severity} {e.code} at {e.location}: {e.message}", file=file)


def _require_valid(sys: SNPSystem, path: str):
    problems = validate(sys)
    if problems:
        _print_entries(path, problems, file=_sys.stderr)
        raise ValidationFailure(path)


def json_default(obj) -> dict:
    """The `default=` hook of every JSON print: a record becomes the dict of
    its own fields (read by name, so cached properties kept in the instance
    dict stay out); tuples print as arrays."""
    if not isinstance(obj, Record):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {name: getattr(obj, name) for name in obj._fields}


def _json(obj, ind: str):
    """Yield ``json.dumps(obj, indent=2, sort_keys=True, default=json_default)``
    in pieces, `ind` being a newline and the current indent.  `json` runs its
    pure-Python encoder under ``indent=``; this walk writes the same bytes
    without building the whole string, and a list of ints is one piece."""
    t = type(obj)  # exact types: bool is not an int here
    if t is str:
        yield encode_basestring_ascii(obj)
    elif t is int:
        yield int.__repr__(obj)
    elif t is bool:
        yield "true" if obj else "false"
    elif obj is None:
        yield "null"
    elif t is list or t is tuple:
        if not obj:
            yield "[]"
            return
        inner = ind + "  "
        if all(type(x) is int for x in obj):
            yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + ind + "]"
            return
        sep = "[" + inner
        for x in obj:
            yield sep
            yield from _json(x, inner)
            sep = "," + inner
        yield ind + "]"
    elif t is dict:
        if not obj:
            yield "{}"
            return
        inner = ind + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _json(value, inner)
            sep = "," + inner
        yield ind + "}"
    elif t is float:
        raise TypeError("float is not printed: snpkit's numbers are exact ints")
    else:
        yield from _json(json_default(obj), ind)


def _emit_json(blob) -> None:
    _sys.stdout.writelines(_json(blob, "\n"))
    _sys.stdout.write("\n")


# --- subcommands ---------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    sys = _load(args.path)
    problems = validate(sys)
    if args.format == "json":
        _emit_json({"ok": not problems, "problems": problems})
    else:
        if not problems:
            print(f"{args.path}: ok "
                  f"({sys.neuron_count} neurons, {sys.rule_count} rules)")
        _print_entries(args.path, problems)
    return 1 if problems else 0


def _matrix_blocks(sys: SNPSystem) -> list[tuple[str, IntMatrix | None]]:
    return [
        ("M", spiking_matrix(sys)),
        ("augmented", augmented_matrix(sys) if sys.out_neuron is not None else None),
        ("PM", production_matrix(sys)),
        ("CM", consumption_matrix(sys)),
        ("struc", struc_matrix(sys)),
    ]


def cmd_matrices(args: argparse.Namespace) -> int:
    sys = _load(args.path)
    _require_valid(sys, args.path)
    blocks = _matrix_blocks(sys)
    if args.format == "json":
        _emit_json(dict(blocks))
    else:
        for name, mat in blocks:
            if mat is None:
                print(f"{name}: (no out neuron)")
            else:
                print(f"{name}:")
                print(mat.to_text())
            print()
    return 0


def _print_trace_text(trace: Trace) -> None:
    for r in trace.records:
        print(
            f"k={r.k} C={r.C} Sp={r.Sp} Iv={r.Iv} "
            f"St={r.St} DSt={r.DSt} NG={r.NG} emitted={r.emitted}"
        )
    print(f"halted: {str(trace.halted).lower()}")
    print(f"spike train: {trace.spike_train or '(none)'}")
    if trace.first_interval is not None:
        print(f"first interval: {trace.first_interval}")


def _tree_summary(tree: TraceTree):
    finals = sorted({leaf.state.config for leaf in tree.leaves()})
    intervals = sorted(achievable_first_intervals(tree))
    return {
        "depth": tree.depth,
        "paths": tree.leaf_count(),
        "final_configs": finals,
        "first_intervals": intervals,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    sys = _load(args.path)
    _require_valid(sys, args.path)
    result = run_trace(
        sys, args.steps, policy=args.policy, mode=args.mode, seed=args.seed
    )
    if args.policy == "exhaustive":
        summary = _tree_summary(result)
        if args.format == "json":
            _emit_json(summary)
        else:
            print(f"paths to depth {summary['depth']}: {summary['paths']}")
            print(
                "final configs: "
                + " ".join(str(c) for c in summary["final_configs"])
            )
            print(
                "achievable first intervals: "
                + (
                    ", ".join(str(i) for i in summary["first_intervals"])
                    or "(none)"
                )
            )
        return 0
    if args.format == "json":
        print("\n".join(json.dumps(r, default=json_default) for r in result.records))
    else:
        _print_trace_text(result)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    sys = _load(args.path)
    _require_valid(sys, args.path)
    rep = structural_report(sys)
    if args.format == "json":
        _emit_json(rep)
    else:
        print(f"row negative counts: {rep.row_negative_counts}")
        print(f"col negative counts: {rep.col_negative_counts}")
        print(f"inferred output neurons: {rep.inferred_output_neurons}")
        print(f"out degree: {rep.out_degree}")
        print(f"struc rank: {rep.struc_rank} of {sys.neuron_count}")
        print(f"rank cycle hint: {str(rep.rank_cycle_hint).lower()}")
        print(f"dfs has cycle: {str(rep.dfs_has_cycle).lower()}")
    return 0


def _print_certificate_text(cert: ReachabilityCertificate) -> None:
    print(f"verdict: {cert.verdict}")
    if cert.reachable:
        print(f"k: {cert.k}")
        print(f"sum vector: {cert.s_bar}")
        for i, sp in enumerate(cert.spiking_vectors):
            print(f"  step {i}: Sp={sp} -> C={cert.configs[i + 1]}")
        if not cert.spiking_vectors:
            print(f"  already at C={cert.configs[0]}")
        return
    print(f"candidates tried: {cert.candidates_tried}")
    for failure in cert.failures:
        print(f"candidate {failure.s_bar}: {failure.reason}")
        for row in failure.table:
            sp = "-" if row.Sp is None else str(row.Sp)
            note = f"  # {row.note}" if row.note else ""
            print(
                f"  i={row.step} Sp={sp} residual={row.residual} "
                f"C={row.config}{note}"
            )


def cmd_reach(args: argparse.Namespace) -> int:
    sys = _load(args.path)
    _require_valid(sys, args.path)
    for flag, config in (("target", args.target), ("from", args.from_config)):
        if config is not None and len(config) != sys.neuron_count:
            raise UsageError(
                f"--{flag} has {len(config)} entries, system has "
                f"{sys.neuron_count} neurons"
            )
    try:
        if args.from_config is None:
            cert = is_reachable(sys, args.target, args.kmax)
        else:
            bound = args.kmax if args.vmax is None else args.vmax
            cert = reach_between(sys, args.from_config, args.target, bound)
    except ValueError as exc:
        # delayed systems have no sum-vector characterization
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        _emit_json(cert)
    else:
        _print_certificate_text(cert)
    return 0 if cert.reachable else 1


# --- argument plumbing -----------------------------------------------------------


def _simulate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=10, help="step budget")
    p.add_argument("--policy", choices=POLICIES, default="first")
    p.add_argument("--mode", choices=MODES, default="standard")
    p.add_argument("--seed", type=int, help="rng seed (random policy)")


def _reach_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, help="comma-separated spike counts")
    p.add_argument("--kmax", type=int, default=4, help="step bound")
    p.add_argument(
        "--from",
        dest="from_config",
        help="start configuration (defaults to the initial one)",
    )
    p.add_argument(
        "--vmax", type=int, help="step bound when --from is given (default --kmax)"
    )


_COMMANDS = {  # name: (handler, help, options beyond path and --format)
    "validate": (cmd_validate, "check semantic constraints", None),
    "matrices": (cmd_matrices, "print the matrix forms", None),
    "simulate": (cmd_simulate, "run the system and print the trace", _simulate_options),
    "analyze": (cmd_analyze, "structural report from the matrix forms", None),
    "reach": (cmd_reach, "decide whether a configuration is reachable", _reach_options),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.  With `only`, the one subcommand argv names: the
    tree holds that subcommand's parser alone, and its usage line still
    lists them all (argv naming one, no other top-level message shows)."""
    parser = argparse.ArgumentParser(
        prog="snpkit",
        description="Simulate and analyze spiking neural P systems "
        "via their matrix representation.",
    )
    listing = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=listing)
    for name, (_cmd, help_, options) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_)
            p.add_argument("path", help="system file")
            p.add_argument(
                "--format", choices=FORMATS, default="text", help="output format"
            )
            if options:
                options(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = _sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        code = _COMMANDS[args.subcommand][0](args)
        _sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        print("snpkit: error: output closed early (broken pipe)", file=_sys.stderr)
        return 2
    except UsageError as exc:
        print(f"snpkit: error: {exc}", file=_sys.stderr)
        return 2
    except ValidationFailure:
        return 1


if __name__ == "__main__":
    code = main()
    if _sys.gettrace() is None and _sys.getprofile() is None:
        # skip the interpreter's teardown of every loaded module; a profiler
        # or coverage tracer keeps the normal exit, which reports
        _sys.stdout.flush()
        _sys.stderr.flush()
        os._exit(code)
    raise SystemExit(code)
