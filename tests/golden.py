"""Run the golden report cases, or write their exit codes and report hashes.

    PYTHONPATH=src python tests/golden.py

rewrites tests/golden.json from the cases in `pairs.py`.  Each case runs
in-process through `run_command`, with the pair's two systems written to
a scratch directory and the report sent to a file there; the hash is the
SHA-256 of that file's bytes.  A hash that changes is a report change.
"""

import hashlib
import json
import os
import tempfile

from skewlab.cli import run_command

import pairs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def run_case(pair, argv, directory):
    """(exit code, SHA-256 of the report bytes) of argv on the named pair."""
    paths = []
    for role, spec in zip(("target", "source"), pairs.PAIRS[pair]()):
        path = os.path.join(directory, "%s.json" % role)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        paths.append(path)
    out = os.path.join(directory, "report.json")
    code = run_command([*argv, "--target", paths[0], "--source", paths[1], "--out", out])
    with open(out, "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


def main():
    cases = []
    with tempfile.TemporaryDirectory() as directory:
        for case, pair, argv in pairs.CASES:
            code, digest = run_case(pair, argv, directory)
            cases.append({"id": case, "pair": pair, "argv": list(argv), "exit": code, "sha256": digest})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
