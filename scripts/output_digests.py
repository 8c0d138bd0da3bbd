"""Print a digest of every output of every benchmark op, one line per op.

Usage, from the root of a checkout:

    python scripts/output_digests.py --seed 1

Builds the inputs and op lists of the three workloads in
``perfbench/workloads.py`` for the seed, runs every op once in process
through ``frenetkit.cli.main`` and prints, per op, its exit code and the
sha256 of its stdout and of each file it writes (``--out``, ``--svg``).
The work directory is fixed, so that reports naming a file are equal from
one checkout to the next: run this on two checkouts one after the other and
``diff`` the outputs to see whether a change alters any byte the program
writes.  Exits 1 if any op exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from frenetkit.cli import main as cli  # noqa: E402

WORK = Path(tempfile.gettempdir()) / "frenetkit-output-digests"
OUTPUT_OPTIONS = ("--out", "--svg")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(argv):
    """Run one subcommand in process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args=argv, prog_name="frenetkit", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        except Exception as exc:  # an op that raises is a failed op; the others still run
            code = type(exc).__name__
    return code, out.getvalue()


def digest_lines(seed):
    """Yield one digest line per op of every workload, and whether the op exited 0."""
    for name in workloads.NAMES:
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.build(name, seed, work)
        wl.write(work)
        for i, op in enumerate(wl.ops):
            code, stdout = run_op(op.argv)
            fields = [f"{name}:{i:03d}", f"exit={code}", f"stdout={_sha(stdout.encode())}"]
            for flag, path in zip(op.argv, op.argv[1:]):
                if flag in OUTPUT_OPTIONS:
                    path = Path(path)
                    fields.append(f"{flag[2:]}={_sha(path.read_bytes()) if path.is_file() else 'missing'}")
            fields.append(" ".join(op.argv).replace(f"{work}/", ""))
            yield " ".join(fields), code == 0
    shutil.rmtree(WORK, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    ok = True
    for line, passed in digest_lines(args.seed):
        print(line)
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
