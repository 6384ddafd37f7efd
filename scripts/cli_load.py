"""The system argument of a script, loaded and validated as the snpkit CLI
does it.  A path that cannot be read, a file that does not parse and a
system that validate rejects each end the script with exit code 2, the
CLI's error lines on stderr and nothing on stdout."""

import sys

from snpkit import cli


def load_valid(path: str):
    try:
        system = cli._load(path)
        cli._require_valid(system, path)  # prints the rejected system's report lines
    except cli.UsageError as exc:
        print(f"snpkit: error: {exc}", file=sys.stderr)
    except cli.SystemParseError as exc:
        print(f"snpkit: error: {path}: {exc}", file=sys.stderr)
    except cli.ValidationFailure:
        pass
    else:
        return system
    raise SystemExit(2)
