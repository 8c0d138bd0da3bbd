"""Print a digest of every output of every benchmark op, one line per op.

Usage, from the root of a checkout:

    python scripts/output_digests.py --seed 1

Builds the inputs and op lists of the three workloads in
``perfbench/workloads.py`` for the seed, runs every op once in process
through ``frenetkit.cli.main`` and prints, per op, its exit code and the
sha256 of its stdout and of each file it writes (``--out``, ``--svg``).
Each run works in a directory of its own, and hashes stdout with that
directory spelled as the fixed ``$TMPDIR/frenetkit-output-digests``, so that
reports naming a file are equal from one checkout to the next and runs at
the same time do not touch each other's files: run this on two checkouts and
``diff`` the outputs to see whether a change alters any byte the program
writes.  Then appends 4096 bytes of junk to every file the ops wrote and
runs them again in the same directory, to check that rewriting an existing,
longer file gives the same bytes as the first write; the rerun prints
nothing on stdout.  Exits 1 if any op exits non-zero or if the rerun of any
op (named on stderr) gives other digests.
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

WORK = Path(tempfile.gettempdir()) / "frenetkit-output-digests"  # how stdout spells each run's directory
OUTPUT_OPTIONS = ("--out", "--svg")
JUNK = bytes(range(256)) * 16  # 4096 bytes appended to each output before the rerun


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


def _outputs(op):
    """The files an op writes, as (option name, path) pairs of its --out and --svg options."""
    return [(flag[2:], Path(path)) for flag, path in zip(op.argv, op.argv[1:]) if flag in OUTPUT_OPTIONS]


def digest_fields(op, root):
    """Run one op; return its exit code and the digests of its stdout, with the
    run directory root spelled as WORK, and of each file it writes."""
    code, stdout = run_op(op.argv)
    fields = [f"exit={code}", f"stdout={_sha(stdout.replace(str(root), str(WORK)).encode())}"]
    fields += [f"{kind}={_sha(path.read_bytes()) if path.is_file() else 'missing'}" for kind, path in _outputs(op)]
    return code, fields


def digest_lines(seed, rewrites):
    """Yield one digest line per op of every workload, and whether the op exited 0.

    After the first run of a workload's ops, JUNK is appended to every file they
    wrote and the ops run again in the same work directory; the name of each op
    whose digests differ on this rerun is appended to rewrites.
    """
    root = Path(tempfile.mkdtemp(prefix="frenetkit-output-digests-"))
    try:
        for name in workloads.NAMES:
            work = root / name
            work.mkdir()
            wl = workloads.build(name, seed, work)
            wl.write(work)
            labels = [f"{name}:{i:03d}" for i in range(len(wl.ops))]
            argvs = [" ".join(op.argv).replace(f"{work}/", "") for op in wl.ops]
            first = []
            for op, label, argv in zip(wl.ops, labels, argvs):
                code, fields = digest_fields(op, root)
                first.append(fields)
                yield " ".join([label, *fields, argv]), code == 0
            for path in {path for op in wl.ops for _, path in _outputs(op) if path.is_file()}:
                with path.open("ab") as fh:
                    fh.write(JUNK)
            for op, label, argv, fields in zip(wl.ops, labels, argvs, first):
                if digest_fields(op, root)[1] != fields:
                    rewrites.append(f"{label} {argv}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    ok, rewrites = True, []
    for line, passed in digest_lines(args.seed, rewrites):
        print(line)
        ok = ok and passed
    for op in rewrites:
        print(f"rewriting over a longer file changed the output of {op}", file=sys.stderr)
    return 0 if ok and not rewrites else 1


if __name__ == "__main__":
    sys.exit(main())
