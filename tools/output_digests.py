"""SHA-256 digests of the bytes the sphere-nav CLI writes for the bundled scenarios.

    python tools/output_digests.py [CHECKOUT] > digests.txt

CHECKOUT is a sphere-nav source tree (default: the one holding this script);
its `src/` is imported, never an installed copy.  Each CLI call runs in a
fresh process with BLAS pinned to one thread and SPHERE_NAV_SEED unset, in
an empty temporary directory.  One line is printed per output, as
`scenario command file sha256`, where the command is the CLI arguments after
the scenario joined by commas and the file is `stdout`, `stderr` (only when
it is not empty) or a file that `run --out` wrote.  The outputs are:

* `run --out` on every bundled scenario but `s3_star1`, whose batch takes
  minutes;
* `validate` at the defaults and at `--seed 3 --samples 3000`;
* `diagnose --equilibria`.

Running it on two checkouts and diffing the listings checks that a change
keeps every output byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    ["run", "--out", "out"],
    ["validate"],
    ["validate", "--seed", "3", "--samples", "3000"],
    ["diagnose", "--equilibria"],
]
SLOW_RUNS = {"s3_star1"}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(src: Path, scenario: Path, args: list[str]):
    """(file, sha256) for each output of one CLI call."""
    env = {k: v for k, v in os.environ.items() if k != "SPHERE_NAV_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "sphere_nav.cli", args[0],
                               str(scenario), *args[1:]],
                              cwd=tmp, env=env, capture_output=True, check=False)
        yield "stdout", digest(proc.stdout)
        if proc.stderr:
            yield "stderr", digest(proc.stderr)
        out = Path(tmp) / "out"
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            yield path.name, digest(path.read_bytes())


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    src = root / "src"
    for scenario in sorted((src / "sphere_nav" / "scenarios").glob("*.json")):
        for args in COMMANDS:
            if args[0] == "run" and scenario.stem in SLOW_RUNS:
                continue
            label = ",".join(a for a in args if a != "out")
            for name, sha in outputs(src, scenario, args):
                print(scenario.stem, label, name, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
