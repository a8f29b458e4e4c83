"""sphere-nav benchmark: seeded batches through the path `sphere-nav run` takes.

Run from the root of a checkout:

    python3 bench/run.py --workload star-s3 [--seed 1] [--trace 0|1]

Workloads, one bundled scenario each:

* ``conic-s3`` (``s3_cones7``): seven caps on S^3, conic law.  A step is
  Python/numpy call overhead on 4-vectors and no region query runs in the
  loop; ROADMAP item 3 (lockstep ensemble integrator) shows here, and a
  star-oracle change must not.
* ``star-s3`` (``s3_star1_eps005``): one power-sum star body on S^3.  Warm
  sequential refined star queries dominate, most of them far-field; ROADMAP
  items 1 (global maximizer) and 4 (certified far-field skip) act here.
* ``star-s2`` (``s2_star4``): four tabulated star regions on S^2.  Setup (the
  projection self-test), validation (cold bulk queries of the
  shadow-disjointness check) and the monitors dominate, so a warm-path gain
  that costs the cold path shows here.  It is not in BENCHMARK.json: its
  setups and validations leave room for about five inputs in a run, and
  whether an input's path meets a band doubles its cost per step, so its
  figures spread too widely across seeds to gate a change.  It is the only
  workload that runs the cold bulk star queries of the shadow-disjointness
  check.  Run it by hand.

Inputs.  ``--seed`` draws initial conditions uniformly on the sphere with
numpy, spread evenly in distance to the target (see ``draw_inputs``), and
keeps the states in the scenario's safe set.  They reach the library as
``initial_conditions.explicit`` through ``scenario_from_dict``.

An untraced run (``--trace 0``) works in one process, BLAS/OpenMP pinned to
one thread, ``parallel=1``:

1. parse the scenario without initial conditions, untimed, to draw the inputs;
2. set up ``setups`` times: ``scenario_from_dict`` with the inputs, then
   ``build_controller``.  ``setup_s`` is the median;
3. run the workload's fixed number of batches of ``batch`` inputs with
   ``run_scenario(out_dir=<tmp>)`` on the first scenario set up, then batch 0
   once more.  Every run integrates the same inputs whatever the speed of the
   code or the machine.  ``steps_per_s`` is the RK4 steps of all batches over
   their time (integration plus CSV/JSON export).  The step count
   depends on the seed, through each input's convergence time; the rate
   normalises for it.  The run also prints how many inputs enter a band
   (a logged row with an ``active_i``), the star law's repulsion branch;
4. after each of the first ``validations`` batches, ``validate_scenario`` at
   ``VALIDATE_SAMPLES`` shadow samples, each on a scenario set up in step 2
   and not used before, so each pays the full cost of a CLI run (the
   measured pairwise separation is cached on the arrangement).
   ``validate_s`` is the median;
5. ``run_s`` = setup_s + mean batch time + validate_s, the cost of
   one ``sphere-nav run`` of a batch; ``peak_rss_mb`` is the process's peak
   resident memory.

The amount of work is fixed per workload, sized so that a run takes about
BENCHMARK.json's ``run_seconds`` on a shared 2-vCPU Xeon VM; ``--seconds`` is
accepted with the other common benchmark arguments and does not change it.

Timings.  The machine this was written on is shared; it runs up to twice as
slow for minutes at a time and switches speed every second or two.
``timed`` samples a fixed half-millisecond probe twenty times a second during
every timed call, and the times reported are the wall-clock rescaled by the
probe's mean speed relative to its undisturbed speed (``REF_PROBE_S``).  A
``#`` line also prints the metrics from the wall-clock as measured.

A traced run (``--trace 1``) runs setup, batch 0 and one validation twice,
untraced and then traced (see ``tracing.py``), requires the two to write
byte-identical reports, and prints the per-layer metrics with the tracing
overhead against the untraced ``run_s``.

Checks.  Each trajectory fails when it is aborted, when its minimum margin
is below the safety floor (-1e-9), or when a logged state is off the sphere
by more than 1e-10.  A validation fails when its report is not ``ok`` or
differs from the run's first one; a batch run twice fails when its summary
JSON or CSV digests differ.  ``max_time`` verdicts are counted, not failed.

Output.  A readable table with sample counts, then, as the last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  ``failed``
over ``attempted`` is the run's failed fraction; it is printed in the table
as ``failed_frac`` and kept out of ``metrics`` because it is 0 on a good run.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPHERE_NAV_SEED", None)   # the benchmark seed is the only seed

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
VALIDATE_SAMPLES = 500    # shadow-disjointness samples (the CLI default is 20 000)
NORM_TOL = 1e-10          # logged states stay this close to the unit sphere
PROBE_PERIOD_S = 0.05     # how often probe_s() samples the machine's speed in a timed call
REF_PROBE_S = 5.5e-4      # probe_s() on a 2-vCPU Xeon VM at its undisturbed speed
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Workload:
    scenario: str      # bundled scenario file stem
    batches: int       # run_scenario calls per untraced run, before batch 0 again
    batch: int         # initial conditions per run_scenario call
    setups: int        # timed setups per untraced run
    validations: int   # timed validations per untraced run, each on a fresh setup

    @property
    def pool(self) -> int:
        """Initial conditions drawn per seed."""
        return self.batches * self.batch


WORKLOADS = {
    "conic-s3": Workload("s3_cones7", batches=9, batch=2, setups=25, validations=3),
    "star-s3": Workload("s3_star1_eps005", batches=4, batch=1, setups=3, validations=2),
    "star-s2": Workload("s2_star4", batches=4, batch=1, setups=3, validations=2),
}

END_TO_END_UNITS = {"setup_s": "s", "steps_per_s": "steps/s", "validate_s": "s",
                    "run_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """sphere_nav from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sphere_nav
        import sphere_nav.scenario  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sphere_nav from {src}: {exc}")
    if not Path(sphere_nav.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: sphere_nav imported from {sphere_nav.__file__}, "
                         f"not from {src}")
    return sphere_nav


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} cpu=\"{cpu}\" "
            f"blas_threads={os.environ['OMP_NUM_THREADS']} processes=1")


_PROBE_ROWS = np.random.default_rng(0).standard_normal((2048, 4))


def _probe_call(x: float) -> float:
    return math.sqrt(x * x + 1.0)


def probe_s() -> float:
    """Wall-clock of a fixed half-millisecond kernel in the library's mix of work.

    Small-vector numpy calls (a control law), plain Python arithmetic and
    function calls (the integrator loop), and whole-array numpy on a table
    the size of a star region's boundary cache (its distance queries and the
    validators).  A slow spell of a shared machine slows these by different
    factors; this mix slows by about as much as both control laws.
    """
    x = np.ones(4)
    rows = _PROBE_ROWS[:200]
    t0 = perf_counter()
    for _ in range(60):
        np.linalg.norm(x * 2.0) + x @ x + np.arccos(0.5)
    acc = 0.0
    for i in range(1500):
        acc += i * i % 7
    for i in range(700):
        acc += _probe_call(float(i))
    np.arccos(np.clip(rows @ rows[0], -1.0, 1.0)).sum()
    np.linalg.norm(rows, axis=1).sum()
    for k in range(2):
        dots = _PROBE_ROWS @ _PROBE_ROWS[k]
        np.argsort(dots)[::-1][:64]
        int(np.argmax(dots))
    return perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    wall_s: float   # as measured, less the probes run inside the call
    ref_s: float    # rescaled to the speed at which probe_s() takes REF_PROBE_S


def timed(fn, *args, **kwargs):
    """fn's result and its Timing.

    A shared machine can run up to twice as slow for minutes, and switch
    speed every second or two.  ``probe_s`` runs just before the call,
    every PROBE_PERIOD_S during it (from a SIGALRM handler, between two
    bytecodes of the library) and just after; ``ref_s`` rescales the
    wall-clock by the probes' mean speed relative to REF_PROBE_S, so that a
    slow spell does not read as a change of the program.
    """
    probes = [probe_s()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe_s()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        wall = perf_counter() - t0 - sum(probes[1:])
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe_s())
    # the probes sample evenly in time, and speed is the probe's inverse
    return out, Timing(wall, wall * REF_PROBE_S * statistics.fmean(1.0 / p for p in probes))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def load_doc(sn, wl: Workload) -> dict:
    path = Path(sn.__file__).parent / "scenarios" / f"{wl.scenario}.json"
    with open(path) as fh:
        return json.load(fh)


def with_inputs(doc: dict, ics: list, seed: int) -> dict:
    out = dict(doc)
    out["initial_conditions"] = {"explicit": [x.tolist() for x in ics],
                                 "count": 0, "seed": seed}
    return out


def draw_inputs(sc, seed: int, count: int) -> list:
    """States in the scenario's safe set, each one uniformly distributed on the sphere.

    A trajectory's work depends most on how far it starts from the target,
    so the cosine t = x.x_d follows a randomly shifted golden-ratio sequence
    mapped through the distribution of t on S^n (randomised quasi-Monte
    Carlo), and the direction orthogonal to the target is uniform.  Every
    input is uniform on the sphere, and any seed's first few inputs spread
    evenly in distance to the target, so they carry about the same work as
    another seed's.  States outside the safe set (the test
    ``draw_initial_conditions`` applies) are skipped.
    """
    rng = np.random.default_rng(seed)
    n = sc.dimension
    xd = sc.target.coords
    # on S^n, t has density proportional to (1 - t^2)^((n - 2) / 2)
    ts = np.linspace(-1.0, 1.0, 4097)
    density = (1.0 - ts ** 2) ** ((n - 2) / 2)
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) * np.diff(ts))])
    cdf /= cdf[-1]
    u = rng.random()
    ics = []
    while len(ics) < count:
        u = (u + GOLDEN) % 1.0
        t = float(np.interp(u, cdf, ts))
        w = rng.standard_normal(n + 1)
        w -= (w @ xd) * xd
        x = t * xd + np.sqrt(1.0 - t * t) * w / np.linalg.norm(w)
        x /= np.linalg.norm(x)
        if float(sc.arrangement.signed_margins(x).min()) >= 0.0:
            ics.append(x)
    return ics


def batch_of(sc, wl: Workload, j: int):
    return replace(sc, explicit_ics=sc.explicit_ics[j * wl.batch:(j + 1) * wl.batch])


# ---------------------------------------------------------------------------
# timed pieces and their output checks
# ---------------------------------------------------------------------------

@dataclass
class Checks:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Batch:
    time: Timing
    steps: list
    band_inputs: int   # trajectories with a logged row in a band
    band_rows: int     # logged rows in a band
    rows: int          # logged rows
    digests: dict
    max_time: int


def digests_of(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def read_csv(path: Path, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """The logged (t, x) columns and, per row, whether it is in a band."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        active = header.index("active_i")
        fields = [line.rstrip("\n").split(",") for line in fh]
    tx = np.array([[float(v) for v in row[:1 + n1]] for row in fields]).reshape(-1, 1 + n1)
    return tx, np.array([row[active] != "" for row in fields], dtype=bool)


def run_batch(sn, sc, out_dir: Path, checks: Checks) -> Batch:
    report, t = timed(sn.scenario.run_scenario, sc, parallel=1, out_dir=str(out_dir))
    n1 = sc.dimension + 1
    steps, band_inputs, band_rows, rows = [], 0, 0, 0
    for r in report.results:
        tx, in_band = read_csv(out_dir / r.to_dict()["csv_file"], n1)
        steps.append(int(round(tx[-1, 0] / sc.sim.dt)))
        band_inputs += bool(in_band.any())
        band_rows += int(in_band.sum())
        rows += len(in_band)
        norm_dev = float(np.abs(np.linalg.norm(tx[:, 1:], axis=1) - 1.0).max())
        checks.check(r.verdict != "aborted"
                     and r.min_margin >= sn.simulate.SAFETY_FLOOR
                     and norm_dev <= NORM_TOL,
                     f"{out_dir.name} ic{r.ic_id}: verdict {r.verdict} ({r.note}), "
                     f"min margin {r.min_margin:.3g}, norm deviation {norm_dev:.3g}")
    digests = digests_of(out_dir)
    shutil.rmtree(out_dir)
    return Batch(t, steps, band_inputs, band_rows, rows, digests,
                 sum(r.verdict == "max_time" for r in report.results))


def run_validation(sn, sc, checks: Checks) -> tuple[Timing, str]:
    report, t = timed(sn.scenario.validate_scenario, sc, samples=VALIDATE_SAMPLES)
    checks.check(report.ok, f"validation: {report.failures}")
    return t, json.dumps(report.to_dict(), sort_keys=True)


def set_up(sn, doc: dict):
    sc = sn.scenario.scenario_from_dict(doc)
    sc.build_controller()
    return sc


def prepare(sn, wl: Workload, seed: int):
    """The seed's inputs and the scenario document that carries them."""
    doc = load_doc(sn, wl)
    probe = sn.scenario.scenario_from_dict(with_inputs(doc, [], seed))
    return with_inputs(doc, draw_inputs(probe, seed, wl.pool), seed)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(sn, wl: Workload, seed: int, tmp: Path):
    doc = prepare(sn, wl, seed)
    checks = Checks()
    setups, fresh = [], []
    for _ in range(wl.setups):
        sc, t = timed(set_up, sn, doc)
        setups.append(t)
        fresh.append(sc)
    # batches run on the first setup; each validation gets a setup of its own
    sc, fresh = fresh[0], fresh[1:1 + wl.validations]
    assert len(fresh) == wl.validations, "a workload needs setups > validations"

    # validations alternate with the first batches, so that a slow spell of
    # a shared machine does not land on one kind of measurement only
    batches, validations, reports = [], [], []
    for j in range(wl.batches):
        batches.append(run_batch(sn, batch_of(sc, wl, j), tmp / f"batch{j}", checks))
        if j < wl.validations:
            t, report = run_validation(sn, fresh[j], checks)
            fresh[j] = None
            validations.append(t)
            reports.append(report)
    again = run_batch(sn, batch_of(sc, wl, 0), tmp / "batch0-again", checks)
    checks.check(again.digests == batches[0].digests,
                 "batch 0 run twice wrote different summary/CSV bytes")
    for report in reports[1:]:
        checks.check(report == reports[0], "validation reports differ between repeats")

    runs = batches + [again]
    steps = [s for b in batches for s in b.steps]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(attr):
        """The metrics from the timings' ``attr``: ref_s (gated) or wall_s."""
        def median(timings):
            return statistics.median(getattr(t, attr) for t in timings)
        setup_s, validate_s = median(setups), median(validations)
        batch_s = [getattr(b.time, attr) for b in runs]
        return {
            "setup_s": setup_s,
            "steps_per_s": sum(sum(b.steps) for b in runs) / sum(batch_s),
            "validate_s": validate_s,
            "run_s": setup_s + statistics.fmean(batch_s) + validate_s,
            "peak_rss_mb": peak_rss_mb,
        }

    values, wall = end_to_end("ref_s"), end_to_end("wall_s")
    samples = {"setup_s": len(setups), "steps_per_s": len(runs),
               "validate_s": len(validations), "run_s": len(runs), "peak_rss_mb": 1}
    notes = {
        "setup_s": "median",
        "steps_per_s": f"all steps / all batch time; batches of {wl.batch}, batch 0 twice",
        "validate_s": f"median at {VALIDATE_SAMPLES} shadow samples, fresh setup each",
        "run_s": "setup + mean batch + validate",
        "peak_rss_mb": "ru_maxrss of the process",
    }
    metrics = {k: (v, END_TO_END_UNITS[k], samples[k], notes[k]) for k, v in values.items()}
    band_rows = sum(b.band_rows for b in batches)
    rows = sum(b.rows for b in batches)
    info = [f"inputs: {len(sc.explicit_ics)} drawn, {len(batches)} batches run, "
            f"batch 0 run again",
            f"steps per trajectory: {steps}",
            f"band: {sum(b.band_inputs for b in batches)} of {len(steps)} inputs enter one; "
            f"{band_rows} of {rows} logged rows ({band_rows / rows:.4g})",
            f"max_time verdicts: {sum(b.max_time for b in runs)} (counted, not failed)",
            "times are rescaled to the reference speed; as measured: "
            + json.dumps(wall)]
    return metrics, checks, info


def one_pass(sn, doc: dict, wl: Workload, out_dir: Path, checks: Checks,
             tracer=None):
    """Setup, batch 0 and one validation; their summed time in ref s."""
    sc, setup = timed(set_up, sn, doc)
    sc = batch_of(sc, wl, 0)
    if tracer is not None:
        sc = tracing.with_region_proxies(sn, sc, tracer)
    batch = run_batch(sn, sc, out_dir, checks)
    validation, report = run_validation(sn, sc, checks)
    return setup.ref_s + batch.time.ref_s + validation.ref_s, batch, report


def traced_run(sn, wl: Workload, seed: int, tmp: Path):
    doc = prepare(sn, wl, seed)
    checks = Checks()
    plain_s, plain, plain_report = one_pass(sn, doc, wl, tmp / "untraced", checks)
    tracer = tracing.Tracer()
    with tracing.instrument(sn, tracer):
        traced_s, traced, traced_report = one_pass(sn, doc, wl, tmp / "traced",
                                                   checks, tracer)
    checks.check(traced.digests == plain.digests,
                 "traced and untraced runs wrote different summary/CSV bytes")
    checks.check(traced_report == plain_report,
                 "traced and untraced validation reports differ")

    metrics = {k: (v, unit, n, "") for k, (v, unit, n) in tracing.layer_metrics(tracer).items()}
    metrics["trace.untraced_run_s"] = (plain_s, "s", 1, "setup + batch 0 + validate")
    metrics["trace.traced_run_s"] = (traced_s, "s", 1, "the same, traced")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio", 1,
                                 "traced_run_s / untraced_run_s - 1")
    info = [f"inputs: {wl.pool} drawn, batch 0 ({wl.batch}) run untraced and traced",
            f"steps per trajectory: {traced.steps}",
            "trace.*_run_s are rescaled to the reference speed; span times are wall-clock"]
    return metrics, checks, info


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="accepted and unused: the work per run is fixed per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its temporary outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    sn = import_library()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.trace:
            metrics, checks, info = traced_run(sn, wl, args.seed, tmp)
        else:
            metrics, checks, info = untraced_run(sn, wl, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    failed = len(checks.failures)
    print(f"# workload={args.workload} scenario={wl.scenario} seed={args.seed} "
          f"trace={args.trace}")
    print(f"# env {environment()}")
    for line in info:
        print(f"# {line}")
    print(f"{'metric':30s} {'value':>14s} {'unit':8s} {'samples':>8s}  note")
    for name, (value, unit, n, note) in metrics.items():
        print(f"{name:30s} {value:14.6g} {unit:8s} {n:8d}  {note}")
    print(f"{'failed_frac':30s} {failed / checks.attempted:14.6g} {'ratio':8s} "
          f"{checks.attempted:8d}  failed checks / attempted checks")
    for what in checks.failures:
        print(f"# FAILED {what}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
