"""Scenario files, configuration validation, and batch execution.

A scenario is a single JSON document:

    {
      "name": "...", "dimension": 3, "target": [1,0,0,0], "delta": 0.13,
      "constraints": [
        {"type": "cap", "axis": [...], "xi": 0.5236},
        {"type": "star", "anchor": [...], "kernel": [...],
         "normal": [...],                      # hyperplane normal (optional)
         "kernel_on_sphere": [...],            # the law's g_i (optional)
         "profile": {"kind": "implicit-radial", "form": "power-sum",
                     "exponents": [0.4, 0.4, 0.4], "level": 1.5}}
      ],
      "controller": {"law": "conic-gradient" | "star-piecewise",
                     "k1": 1.0, "kappa": 1.0 | "auto", "epsilon": 0.01 | "auto"},
      "sim": {"dt": 1e-3, "T": 30.0, "log_stride": 10},
      "initial_conditions": {"explicit": [[...]], "count": 9, "seed": 41}
    }

Star profiles: ``power-sum`` is the sublevel set sum_i |s_i|^e_i <= level in
hyperplane coordinates about the anchor; ``radial-table`` lists boundary
radii about the kernel at uniform angles (planar bodies only).  When
``normal`` is omitted it defaults to the anchor direction; the in-plane
basis completes the normal deterministically (standard axes, Gram-Schmidt
in index order), which the tabulated radii rely on.  ``kernel_on_sphere``
is the unit point g_i that the star law repels from.  When it is omitted it
is the kernel's image on the sphere; `validate` certifies any other choice
with the crossing test from the point where its ray meets the hyperplane.

Reports are reproducible byte for byte for a fixed (scenario, seed): no
timestamps, sorted keys, and 17-significant-digit floats in the CSVs.  The
environment variable SPHERE_NAV_SEED overrides the scenario seed.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geometry as geo
from .constraints import (
    ConicCap,
    ConstraintArrangement,
    EuclideanStarBody,
    PowerSumProfile,
    RadialTableProfile,
    build_projected_star,
    complete_basis,
    phi,
    suggest_epsilon,
    validate_kernel,
    validate_region_disjointness,
)
from .controllers import (
    ConicControllerParams,
    ConicGradientController,
    StarControllerParams,
    StarPiecewiseController,
    suggest_kappa,
)
from .errors import (
    DomainError,
    InvariantViolation,
    ScenarioParseError,
    SphereNavError,
)
from .geometry import UnitPoint
from .simulate import (
    NonSmoothNeighborhood,
    SimConfig,
    Trajectory,
    integrate,
    jacobian_fd,
)

SEED_ENV_VAR = "SPHERE_NAV_SEED"
FD_STEP = 1e-5         # finite-difference step of diagnose_scenario's Jacobians
SHADOW_SAMPLES = 20_000  # Monte-Carlo samples of the shadow-disjointness check


# ---------------------------------------------------------------------------
# scenario model and parsing
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    dimension: int
    target: UnitPoint
    arrangement: ConstraintArrangement
    law: str
    k1: float
    kappa: float | str | None
    epsilon: float | str
    sim: SimConfig
    explicit_ics: list
    ic_count: int
    seed: int

    def resolved_epsilon(self) -> float:
        if self.epsilon == "auto":
            return suggest_epsilon(self.arrangement, self.target)
        return float(self.epsilon)

    def resolved_kappa(self) -> float | None:
        if self.law != "star-piecewise":
            return None
        if self.kappa == "auto":
            return suggest_kappa(self.arrangement, self.target,
                                 self.resolved_epsilon()).recommended
        return float(self.kappa)

    def build_controller(self):
        eps = self.resolved_epsilon()
        if self.law == "conic-gradient":
            params = ConicControllerParams(k1=self.k1, epsilon=eps,
                                           x_d=self.target)
            return ConicGradientController(self.arrangement, params)
        params = StarControllerParams(k1=self.k1, kappa=self.resolved_kappa(),
                                      epsilon=eps, x_d=self.target)
        return StarPiecewiseController(self.arrangement, params)


def _integer(value) -> int:
    """int(value) for a whole number; booleans and fractions raise ValueError."""
    num = int(value)
    if isinstance(value, bool) or num != value:
        raise ValueError(f"not an integer: {value!r}")
    return num


def _real(value) -> float:
    """float(value) for a JSON number; strings and booleans raise ValueError."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _reals(values) -> np.ndarray:
    """A JSON array of numbers as floats; like `_real`, it refuses strings and booleans."""
    if not {str, bool}.isdisjoint(map(type, values)):    # a string maps to strings
        raise ValueError(f"not an array of numbers: {values!r}")
    return np.asarray(values, dtype=float)


def _number_or_violation(value, what: str, violations: list[str], kind=_real):
    """kind(value), or None with a violation when value is not a finite number."""
    try:
        num = kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is _integer else "numeric"
        violations.append(f"{what}: not {noun}: {value!r}")
        return None
    # int() already refuses NaN and infinities
    if kind is not _integer and not np.isfinite(num).all():
        violations.append(f"{what}: not finite: {value!r}")
        return None
    return num


def _vector_or_violation(vec, what: str, dim: int, violations: list[str]):
    arr = _number_or_violation(vec, what, violations, _reals)
    if arr is not None and arr.shape != (dim + 1,):
        violations.append(f"{what}: expected {dim + 1} coordinates")
        return None
    return arr


def _typed(value, what: str, kind: type, violations: list[str]):
    """value when it is a JSON object (kind dict) or array (kind list), else empty."""
    if isinstance(value, kind):
        return value
    violations.append(f"{what}: expected a JSON {'object' if kind is dict else 'array'}")
    return kind()


def _unit_or_violation(vec, what: str, dim: int, violations: list[str]):
    arr = _vector_or_violation(vec, what, dim, violations)
    if arr is None:
        return None
    nrm = float(np.linalg.norm(arr))
    if abs(nrm - 1.0) > 1e-6:
        violations.append(f"{what}: not a unit vector (norm {nrm:.6g})")
        return None
    return arr / nrm


def _parse_profile(block: dict, what: str, violations: list[str]):
    kind = block.get("kind") if isinstance(block, dict) else None
    try:
        if kind == "implicit-radial":
            form = block.get("form", "power-sum")
            if form != "power-sum":
                violations.append(f"{what}: unknown implicit form {form!r}")
                return None
            return PowerSumProfile(_reals(block["exponents"]), _real(block["level"]))
        if kind == "radial-table":
            return RadialTableProfile(_reals(block["values"]))
    except KeyError as exc:
        violations.append(f"{what}: missing {exc}")
        return None
    except (SphereNavError, TypeError, ValueError) as exc:
        violations.append(f"{what}: {exc}")
        return None
    violations.append(f"{what}: unknown kind {kind!r}")
    return None


def _parse_constraint(block: dict, dim: int, index: int,
                      violations: list[str]):
    what = f"constraints[{index}]"
    ctype = block.get("type") if isinstance(block, dict) else None
    if ctype == "cap":
        axis = _unit_or_violation(block.get("axis"), f"{what}.axis", dim,
                                  violations)
        try:
            xi = _real(block["xi"])
        except (KeyError, TypeError, ValueError):
            xi = None
        if xi is None or not 0.0 <= xi < np.pi:
            violations.append(f"{what}.xi must be in [0, pi)")
            return None, None
        if axis is None:
            return None, None
        return ConicCap(UnitPoint(axis), xi), None
    if ctype == "star":
        anchor = _vector_or_violation(block.get("anchor"), f"{what}.anchor", dim,
                                      violations)
        if anchor is None:
            return None, None
        kernel, normal = (_vector_or_violation(block.get(key, anchor), f"{what}.{key}",
                                               dim, violations) for key in ("kernel", "normal"))
        profile = _parse_profile(block.get("profile", {}), f"{what}.profile",
                                 violations)
        if any(v is None for v in (kernel, normal, profile)):
            return None, None
        if abs(float(normal @ anchor)) < 1e-12:
            violations.append(f"{what}: hyperplane through the origin")
            return None, None
        basis = complete_basis(normal)
        try:
            body = EuclideanStarBody(anchor=anchor, basis=basis,
                                     kernel_point=kernel, profile=profile)
            shape = build_projected_star(body)
        except SphereNavError as exc:
            violations.append(f"{what}: {exc}")
            return None, None
        if block.get("kernel_on_sphere") is None:
            return shape, None
        gk = _unit_or_violation(block["kernel_on_sphere"],
                                f"{what}.kernel_on_sphere", dim, violations)
        return (None, None) if gk is None else (shape, gk)
    violations.append(f"{what}.type must be 'cap' or 'star'")
    return None, None


def parse_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario file.

    Collects every violated invariant before raising, so a bad file reports
    all of its problems at once.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioParseError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, line=exc.lineno) from exc
    return scenario_from_dict(doc, path=path)


def scenario_from_dict(doc: dict, path: str | None = None) -> Scenario:
    violations: list[str] = []
    doc = _typed(doc, "scenario", dict, violations)
    # the name prefixes every output file, so it must not leave the output directory
    name = doc.get("name", os.path.basename(path or "scenario").rsplit(".", 1)[0])
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        violations.append(f"name must be a non-empty file name with no path separator, "
                          f"not . or ..: {name!r}")
    dim = _number_or_violation(doc.get("dimension", 0), "dimension", violations, _integer)
    if dim is None or dim < 2:
        violations.append("dimension must be >= 2")
        raise InvariantViolation(violations)

    target = _unit_or_violation(doc.get("target"), "target", dim, violations)

    blocks = _typed(doc.get("constraints", []), "constraints", list, violations)
    if not blocks:
        violations.append("constraints: at least one region is required")
    sets, kernels = [], []
    for i, block in enumerate(blocks):
        s, gk = _parse_constraint(block, dim, i, violations)
        if s is not None:
            sets.append(s)
            kernels.append(gk)

    ctrl = _typed(doc.get("controller", {}), "controller", dict, violations)
    law = ctrl.get("law")
    if law not in ("conic-gradient", "star-piecewise"):
        violations.append("controller.law must be 'conic-gradient' or 'star-piecewise'")
    k1 = _number_or_violation(ctrl.get("k1", 1.0), "controller.k1", violations)
    if k1 is not None and k1 <= 0:
        violations.append("controller.k1 must be positive")
    kappa = ctrl.get("kappa", "auto")
    epsilon = ctrl.get("epsilon", "auto")
    for key, value in (("kappa", kappa), ("epsilon", epsilon)):
        # only the star law reads kappa, so other laws may leave it null
        unread = key == "kappa" and value is None and law != "star-piecewise"
        if value != "auto" and not unread:
            num = _number_or_violation(value, f"controller.{key}", violations)
            if num is not None and num <= 0:
                violations.append(f"controller.{key} must be positive or 'auto'")

    sim_block = _typed(doc.get("sim", {}), "sim", dict, violations)
    try:
        sim = SimConfig(dt=_real(sim_block.get("dt", 1e-3)),
                        T=_real(sim_block.get("T", 30.0)),
                        log_stride=_integer(sim_block.get("log_stride", 1)))
    except (TypeError, ValueError) as exc:
        violations.append(f"sim: {exc}")
        sim = SimConfig()

    delta = doc.get("delta")
    if delta is not None:
        delta = _number_or_violation(delta, "delta", violations)
        if delta is not None and delta <= 0:
            violations.append("delta must be positive")
    # no valid region is a violation already; an arrangement needs one
    arrangement = ConstraintArrangement(sets, kernels, delta_declared=delta) if sets else None

    if target is not None and sets:
        if arrangement.union_margin(target) <= 0.0:
            violations.append("target lies inside (or on) the unsafe union")
        if law == "star-piecewise":
            # the star law steers toward kernel antipodes; those reference
            # arcs degenerate when a kernel is antipodal to the target
            for i, g in enumerate(arrangement.kernels):
                if float(g.coords @ target) <= -1.0 + 1e-9:
                    violations.append(f"kernel {i} is antipodal to the target")

    ic_block = _typed(doc.get("initial_conditions", {}), "initial_conditions", dict,
                      violations)
    explicit = []
    rows = _typed(ic_block.get("explicit", []), "initial_conditions.explicit", list,
                  violations)
    for j, row in enumerate(rows):
        v = _unit_or_violation(row, f"initial_conditions.explicit[{j}]", dim,
                               violations)
        if v is not None and sets:
            if arrangement.union_margin(v) < 0.0:
                violations.append(
                    f"initial_conditions.explicit[{j}] starts inside the unsafe union")
        if v is not None:
            explicit.append(v)
    ic_count, seed = (_number_or_violation(ic_block.get(key, 0), f"initial_conditions.{key}",
                                           violations, _integer) for key in ("count", "seed"))
    for key, num in (("count", ic_count), ("seed", seed)):
        if num is not None and num < 0:
            violations.append(f"initial_conditions.{key} must be non-negative")

    if violations:
        raise InvariantViolation(violations)

    return Scenario(name=name, dimension=dim, target=UnitPoint(target),
                    arrangement=arrangement, law=law, k1=k1, kappa=kappa,
                    epsilon=epsilon, sim=sim, explicit_ics=explicit,
                    ic_count=ic_count, seed=seed)


def effective_seed(sc: Scenario, override: int | None = None) -> int:
    """The override, else SPHERE_NAV_SEED, else the scenario's seed."""
    seed = override if override is not None else os.environ.get(SEED_ENV_VAR, sc.seed)
    try:
        seed = int(seed)
    except ValueError:
        raise DomainError(f"the initial-condition seed is not an integer: {seed!r}") from None
    if seed < 0:
        raise DomainError(f"the initial-condition seed must be non-negative, got {seed}")
    return seed


def draw_initial_conditions(sc: Scenario, seed: int) -> list[np.ndarray]:
    """Explicit ICs plus seeded rejection draws from the safe set."""
    ics = [np.asarray(v, dtype=float) for v in sc.explicit_ics]
    if sc.ic_count <= 0:
        return ics
    rng = np.random.default_rng(seed)
    needed = sc.ic_count
    guard = 0
    while needed > 0:
        batch = geo.sample_uniform_many(sc.dimension, max(4 * needed, 16), rng)
        for row in batch:
            if sc.arrangement.union_margin(row) >= 0.0:
                ics.append(row)
                needed -= 1
                if needed == 0:
                    break
        guard += 1
        if guard > 1000:
            raise InvariantViolation(
                ["rejection sampling failed to find feasible initial conditions"])
    return ics


# ---------------------------------------------------------------------------
# validation command
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    scenario: str
    delta_declared: float | None
    delta_measured: float
    phi_delta: float | None
    eps_bar: float
    epsilon: float
    epsilon_suggested: float
    kappa_bar: float | None
    kappa_recommended: float | None
    kappa_configured: float | None
    kernel_ok: list[bool]
    kernel_codes: list[list[str]]
    regions_disjoint: bool
    region_witness: list | None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def validate_scenario(sc: Scenario, samples: int = SHADOW_SAMPLES,
                      seed: int = 0) -> ValidationReport:
    """Run every configuration check and collect failures.

    `seed` draws only the Monte-Carlo shadow check's samples; every other
    check, the separation too, is a function of the scenario alone.  Raises
    `DomainError`, before any check runs, only for a negative seed or fewer
    than one Monte-Carlo sample; a failed check never raises.
    """
    if seed < 0 or samples < 1:
        raise DomainError("validation needs a non-negative seed and at least one "
                          f"sample, got seed {seed} and {samples} samples")
    arr = sc.arrangement
    failures: list[str] = []

    delta = arr.delta_measured()
    phi_delta = None
    if np.isfinite(delta) and delta > 0:
        phi_delta = phi(min(delta, 2.0))
    if arr.delta_declared is not None and delta < arr.delta_declared - 1e-6:
        failures.append(
            f"measured separation {delta:.6g} is below the declared {arr.delta_declared}")

    eps_bar = arr.union_margin(sc.target)
    epsilon = sc.resolved_epsilon()
    try:
        eps_suggested = suggest_epsilon(arr, sc.target)
    except SphereNavError as exc:
        eps_suggested = float("nan")
        failures.append(f"no band width can be suggested: {exc}")
    bound = eps_bar if phi_delta is None else min(eps_bar, phi_delta)
    if not 0.0 < epsilon < bound:
        failures.append(
            f"epsilon {epsilon:.6g} is not admissible (must be below {bound:.6g})")

    kernel_ok, kernel_codes = [], []
    for i, s in enumerate(arr.sets):
        rep = validate_kernel(s, arr.kernels[i])
        kernel_ok.append(rep.ok)
        kernel_codes.append([f.code for f in rep.failures])
        if not rep.ok:
            failures.append(f"kernel {i}: {', '.join(kernel_codes[-1])}")

    disj = validate_region_disjointness(arr, sc.target, epsilon,
                                        samples=samples, seed=seed)
    if not disj.ok:
        failures.append(
            f"shadow regions overlap ({disj.overlaps} of {disj.checked} samples)")

    kappa_bar = kappa_rec = kappa_cfg = None
    if sc.law == "star-piecewise":
        ks = suggest_kappa(arr, sc.target, epsilon)
        kappa_bar, kappa_rec = ks.kappa_bar, ks.recommended
        # sc.resolved_kappa() would run the same suggestion again
        kappa_cfg = kappa_rec if sc.kappa == "auto" else float(sc.kappa)
        if not np.isfinite(kappa_bar):
            failures.append("no finite repulsion-gain bound exists for this geometry")
        elif kappa_cfg <= kappa_bar:
            failures.append(
                f"kappa {kappa_cfg:.6g} does not exceed the bound {kappa_bar:.6g}")

    return ValidationReport(
        scenario=sc.name, delta_declared=arr.delta_declared,
        delta_measured=delta, phi_delta=phi_delta, eps_bar=eps_bar,
        epsilon=epsilon, epsilon_suggested=eps_suggested,
        kappa_bar=kappa_bar, kappa_recommended=kappa_rec,
        kappa_configured=kappa_cfg,
        kernel_ok=kernel_ok, kernel_codes=kernel_codes,
        regions_disjoint=disj.ok,
        region_witness=None if disj.witness is None else list(disj.witness),
        failures=failures)


# ---------------------------------------------------------------------------
# batch runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    ic_id: int
    x0: list
    verdict: str
    note: str
    safe: bool
    min_margin: float
    time_converged: float | None
    final_d_target: float
    csv_path: str | None = None

    def to_dict(self) -> dict:
        # the report stores the basename so identical (scenario, seed) runs
        # produce identical bytes regardless of the output directory
        return {
            "ic_id": self.ic_id, "x0": self.x0, "verdict": self.verdict,
            "note": self.note, "safe": self.safe,
            "min_margin": self.min_margin,
            "time_converged": self.time_converged,
            "final_d_target": self.final_d_target,
            "csv_file": None if self.csv_path is None
            else os.path.basename(self.csv_path),
        }


@dataclass
class RunReport:
    scenario: str
    seed: int
    epsilon: float
    kappa: float | None
    results: list[RunResult]
    validation: ValidationReport | None = None

    @property
    def n_converged(self) -> int:
        return sum(r.verdict == "converged" for r in self.results)

    @property
    def n_safe(self) -> int:
        return sum(r.safe for r in self.results)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "seed": self.seed,
            "epsilon": self.epsilon, "kappa": self.kappa,
            "n_runs": len(self.results),
            "n_converged": self.n_converged, "n_safe": self.n_safe,
            "results": [r.to_dict() for r in self.results],
            "validation": None if self.validation is None
            else self.validation.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trajectory_csv(traj: Trajectory, path: str):
    """One row per logged step; floats carry 17 significant digits."""
    n1 = traj.x.shape[1]
    header = (["t"] + [f"x{i}" for i in range(n1)] + [f"u{i}" for i in range(n1)]
              + ["d_target", "d_unsafe", "active_i", "V_active"])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(traj)):
            row = [_fmt(traj.t[k])]
            row += [_fmt(v) for v in traj.x[k]]
            row += [_fmt(v) for v in traj.u[k]]
            row += [_fmt(traj.d_target[k]), _fmt(traj.d_unsafe[k])]
            a = int(traj.active[k])
            row.append("" if a < 0 else str(a))
            v = traj.v_active[k]
            row.append("" if np.isnan(v) else _fmt(v))
            fh.write(",".join(row) + "\n")


def _run_one(args):
    controller, cfg, ic_id, x0 = args
    return ic_id, integrate(x0, controller, cfg)


def run_scenario(sc: Scenario, parallel: int = 1, out_dir: str | None = None,
                 seed: int | None = None,
                 include_validation: bool = False) -> RunReport:
    """Integrate every initial condition and assemble the batch report.

    Individual failures (aborted verdicts) do not stop the batch.  Results
    are keyed by ic_id, so the report does not depend on the execution
    order or the level of parallelism.
    """
    run_seed = effective_seed(sc, seed)
    ics = draw_initial_conditions(sc, run_seed)
    # one controller serves every start: the laws keep no per-run state
    controller = sc.build_controller()
    jobs = [(controller, sc.sim, i, x0) for i, x0 in enumerate(ics)]
    pooled = parallel > 1 and len(jobs) > 1
    with ProcessPoolExecutor(max_workers=parallel) if pooled else nullcontext() as pool:
        trajs: dict[int, Trajectory] = dict((pool.map if pooled else map)(_run_one, jobs))

    results: list[RunResult] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for ic_id in sorted(trajs):
        traj = trajs[ic_id]
        csv_path = None
        if out_dir is not None:
            csv_path = os.path.join(out_dir, f"{sc.name}_ic{ic_id:02d}.csv")
            write_trajectory_csv(traj, csv_path)
        results.append(RunResult(
            ic_id=ic_id, x0=[float(v) for v in trajs[ic_id].x[0]],
            verdict=traj.verdict, note=traj.note, safe=traj.safe,
            min_margin=traj.min_margin, time_converged=traj.time_converged,
            final_d_target=float(traj.d_target[-1]), csv_path=csv_path))

    validation = validate_scenario(sc) if include_validation else None
    report = RunReport(scenario=sc.name, seed=run_seed,
                       epsilon=controller.params.epsilon,
                       # the conic law has no repulsion gain
                       kappa=getattr(controller.params, "kappa", None),
                       results=results, validation=validation)
    if out_dir is not None:
        with open(os.path.join(out_dir, f"{sc.name}_summary.json"), "w") as fh:
            fh.write(report.to_json())
        with open(os.path.join(out_dir, f"{sc.name}_plot_long.csv"), "w") as fh:
            fh.write("t,d_target,d_unsafe,ic_id\n")
            for ic_id, traj in sorted(trajs.items()):
                fh.writelines(f"{_fmt(t)},{_fmt(d)},{_fmt(u)},{ic_id}\n"
                              for t, d, u in zip(traj.t, traj.d_target, traj.d_unsafe))
    return report


# ---------------------------------------------------------------------------
# diagnostics command
# ---------------------------------------------------------------------------

def _expected_spectrum_note(sc: Scenario, at: str) -> str:
    k1 = sc.k1
    n = sc.dimension
    if at == "target":
        return (f"expected -k1*(I + x_d x_d^T): eigenvalues "
                f"{-2 * k1:.6g} (x1) and {-k1:.6g} (x{n})")
    if sc.law == "conic-gradient":
        return (f"far-field linearization (k1/9)*(I + x_d x_d^T): eigenvalues "
                f"{2 * k1 / 9:.6g} (x1) and {k1 / 9:.6g} (x{n})")
    return (f"far-field linearization k1*(I + x_d x_d^T): eigenvalues "
            f"{2 * k1:.6g} (x1) and {k1:.6g} (x{n})")


def diagnose_scenario(sc: Scenario, points: list | None = None,
                      equilibria: bool = True) -> dict:
    """FD Jacobian spectra at the target, its antipode, and user points.

    User points follow the parser's unit-vector rule and are normalized; any
    other point raises `DomainError` before a controller is built.
    """
    problems: list[str] = []
    user_points = [_unit_or_violation(p, f"point{j}", sc.dimension, problems)
                   for j, p in enumerate(points or [])]
    if problems:
        raise DomainError("; ".join(problems))
    controller = sc.build_controller()
    eps = sc.resolved_epsilon()
    queries: list[tuple[str, np.ndarray]] = []
    if equilibria:
        queries.append(("target", controller.x_d.copy()))
        anti = -controller.x_d
        if controller.arr.union_margin(anti) >= eps:
            queries.append(("antipode", anti))
    queries += [(f"point{j}", x) for j, x in enumerate(user_points)]

    entries = []
    for label, p in queries:
        entry = {"label": label, "x": [float(v) for v in p]}
        try:
            spec = jacobian_fd(p, controller, step=FD_STEP)
        except NonSmoothNeighborhood:
            # shrink the stencil once and retry before giving up
            try:
                spec = jacobian_fd(p, controller, step=FD_STEP / 100.0)
                entry["note"] = "non-smooth neighborhood; step shrunk and retried"
            except NonSmoothNeighborhood:
                entry["error"] = "non-smooth neighborhood at the requested point"
                entries.append(entry)
                continue
        entry["eig_ambient"] = [float(np.real(v)) for v in spec.eig_ambient]
        entry["eig_tangent"] = [float(np.real(v)) for v in spec.eig_tangent]
        if label in ("target", "antipode"):
            entry["reference"] = _expected_spectrum_note(sc, label)
        entries.append(entry)
    return {"scenario": sc.name, "step": FD_STEP, "spectra": entries}
