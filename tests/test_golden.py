"""Golden output: the byte-stable reports of the single-interval commands and suites.

Every catalog group and named interval is run through `interval`,
`totient`, `certify`, `primitive` and `bbl`, and every `reproduce` target
of the registry `reproduce.TARGETS` is run once.  The full lattice of
S2 x S3^3 (order 432, 3,916 subgroups) runs every command too (`certify`
exits 2: the lattice is not distributive); `interval` comes first, so the
others reuse the interval it memoized.  The stored digest is the sha256 of stdout, next to the exit
code and stderr.

Regenerate (only when a report is meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from orelat import catalog as cat
from orelat.cli import main
from orelat.reproduce import TARGETS

GOLDEN = Path(__file__).with_name("golden_outputs.json")
COMMANDS = ("interval", "totient", "certify", "primitive", "bbl")


def golden_cases() -> list:
    names = cat.catalog_names() + sorted(cat._INTERVALS)
    singles = [f"{command} {name}" for name in names for command in COMMANDS]
    return singles + [f"reproduce {target}" for target in TARGETS]


def run_case(case: str) -> dict:
    command, name = case.split(" ")
    argv = [command, name] if command == "reproduce" else [command, "--catalog", name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "exit": code,
        "stderr": err.getvalue(),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(golden_cases())


@pytest.mark.parametrize("case", golden_cases())
def test_output_matches_golden(case):
    assert run_case(case) == load_golden()[case]


if __name__ == "__main__":
    digests = {case: run_case(case) for case in golden_cases()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")
