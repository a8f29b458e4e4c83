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

The CLI prints verdicts, not the library values under them, so two more
lines per scenario digest those, each from a fresh process on the same
terms:

* `suggest_kappa reprs`: the `repr` of `suggest_kappa` (or the library
  error it raises) at the scenario's target and 7 targets drawn with
  `default_rng(17)`, each at band widths 0.005, 0.02, 0.05, 0.3 and 1.5;
* `shadow_members bits`: every region's shadow membership
  (`constraints._Shadow.members`) at the scenario's band width for 20,000
  points drawn with `default_rng(0)`, a single region being paired with
  itself.

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
KAPPA_TARGETS = 7
KAPPA_EPSILONS = (0.005, 0.02, 0.05, 0.3, 1.5)
SHADOW_POINTS = 20_000


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(src: Path, cmd: list[str], cwd: str) -> subprocess.CompletedProcess:
    """cmd in a fresh interpreter that imports sphere_nav from `src`."""
    env = {k: v for k, v in os.environ.items() if k != "SPHERE_NAV_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *cmd], cwd=cwd, env=env,
                          capture_output=True, check=False)


def outputs(src: Path, scenario: Path, args: list[str]):
    """(file, sha256) for each output of one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = run(src, ["-m", "sphere_nav.cli", args[0], str(scenario), *args[1:]], tmp)
        yield "stdout", digest(proc.stdout)
        if proc.stderr:
            yield "stderr", digest(proc.stderr)
        out = Path(tmp) / "out"
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            yield path.name, digest(path.read_bytes())


def library_digests(scenario: str) -> None:
    """Print the `suggest_kappa` and `shadow_members` lines of one scenario;
    it runs in the process that `library_outputs` starts."""
    import numpy as np

    from sphere_nav import geometry as geo
    from sphere_nav.constraints import ConstraintArrangement, _Shadow
    from sphere_nav.controllers import suggest_kappa
    from sphere_nav.errors import SphereNavError
    from sphere_nav.scenario import parse_scenario

    sc = parse_scenario(scenario)
    arr, xd = sc.arrangement, sc.target.coords
    reprs = []
    for x_d in [xd, *geo.sample_uniform_many(sc.dimension, KAPPA_TARGETS,
                                              np.random.default_rng(17))]:
        for eps in KAPPA_EPSILONS:
            try:
                reprs.append(repr(suggest_kappa(arr, x_d, eps)))
            except SphereNavError as exc:
                reprs.append(f"{type(exc).__name__}: {exc}")
    print("suggest_kappa", "reprs", digest("\n".join(reprs).encode()))
    if len(arr) == 1:
        arr = ConstraintArrangement([arr.sets[0], arr.sets[0]])
    pts = geo.sample_uniform_many(sc.dimension, SHADOW_POINTS, np.random.default_rng(0))
    eps = sc.resolved_epsilon()
    bits = np.column_stack([_Shadow(arr, i, xd, eps).members(pts) for i in range(len(arr))])
    print("shadow_members", "bits", digest(np.packbits(bits).tobytes()))


def library_outputs(src: Path, scenario: Path):
    """(command, file, sha256) for each line `library_digests` prints."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import output_digests; output_digests.library_digests({str(scenario)!r})")
    with tempfile.TemporaryDirectory() as tmp:
        proc = run(src, ["-c", code], tmp)
    if proc.returncode != 0:
        yield "library", "stderr", digest(proc.stderr)
    for line in proc.stdout.decode().splitlines():
        yield tuple(line.split())


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
        for label, name, sha in library_outputs(src, scenario):
            print(scenario.stem, label, name, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
