"""The four workloads: inputs from a seed, the timed operations, and their checks.

Each workload has three steps.  ``setup`` builds the inputs from the seed
through woldlab's constructors (measures, Gram assembly, operators,
scrambles) and the ground truth through the benchmark's own arithmetic.
``solve`` runs the operations whose wall and CPU time the benchmark reports.
``check`` compares the outputs with the ground truth and returns the
residuals; a wrong output raises ``checks.WrongOutput``.  A round is one
``setup`` plus one ``solve`` of the whole, fixed set of operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import scenario

import woldlab as wl
from woldlab import cli


@dataclass
class Outcome:
    """What one round did, as the checks saw it."""

    attempted: int
    failed: int = 0
    cert: list = field(default_factory=list)    # residuals the program certified
    truth: list = field(default_factory=list)   # errors against the benchmark's truth
    cli_tasks_s: float = 0.0                    # sum of the per-task times wold-lab reports


def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31))


def to_measure(truth) -> "wl.CircleMeasure":
    atoms, density = truth
    return wl.CircleMeasure(dim=density.shape[0], atoms=tuple(atoms), density=density)


def _embeddings(dims):
    total = sum(dims)
    offs = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(int)
    out = []
    for d, off in zip(dims, offs):
        E = np.zeros((total, d), dtype=complex)
        E[off:off + d] = np.eye(d)
        out.append(E)
    return out


# ---------------------------------------------------------------------------
# single_ladder
# ---------------------------------------------------------------------------

class SingleLadder:
    """Scrambled U_k (+) M_z(mu) on a caps ladder; wold_single, then the comparison."""

    #: (caps, unitary dim k, atoms of mu, constant density of mu)
    RUNGS = ((32, 1, 2, 0.0), (48, 2, 3, 0.5), (64, 3, 2, 0.0), (96, 2, 3, 0.4))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rungs = []
        for i, (caps, k, n_atoms, dens) in enumerate(self.RUNGS):
            rng = _rng(self.seed, 1, i)
            truth = scenario.scalar_measure(rng, n_atoms, dens)
            mu = to_measure(truth)
            unitary = wl.unitary_operator(wl.random_unitary(k, _seed_int(rng)))
            shift = wl.build_shift_1v(mu, caps)
            T, W = wl.scramble(wl.direct_sum([unitary, shift]), _seed_int(rng))
            E0, E1 = _embeddings([k, caps + 1])
            rungs.append(dict(T=T, mu=mu, truth=truth, k=k, caps=caps,
                              H0=W.conj().T @ E0, H1=W.conj().T @ E1))
        return rungs

    def solve(self, rungs):
        out = []
        for r in rungs:
            res = wl.wold_single(r["T"])
            cmp = wl.measures_equal_up_to_unitary(r["mu"], res.extracted, K=checks.K)
            out.append((res, cmp))
        return out

    def check(self, rungs, out) -> Outcome:
        oc = Outcome(attempted=len(rungs))
        for r, (res, cmp) in zip(rungs, out):
            where = f"caps {r['caps']}"
            checks.require((res.H0.dim, res.H1.dim) == (r["k"], r["caps"] + 1),
                           f"{where}: block dims {(res.H0.dim, res.H1.dim)}")
            checks.require(cmp.equal is True, f"{where}: measure comparison says {cmp.detail}")
            gram = r["T"].dom.gram
            oc.truth += [checks.projector_distance(gram, res.H0.basis, r["H0"]),
                         checks.projector_distance(gram, res.H1.basis, r["H1"]),
                         checks.fourier_error(r["truth"], (res.extracted.atoms, res.extracted.density))]
            oc.cert += list(res.residuals.values())
        return oc


# ---------------------------------------------------------------------------
# pair_fourblock
# ---------------------------------------------------------------------------

BLOCKS = ("H00", "H10", "H01", "H11")


class PairFourBlock:
    """Scrambled four-block pairs and coordinate pairs; wold_pair with extraction."""

    #: (k00, caps10, caps01, caps11) of the scrambled four-block pairs
    FOUR_BLOCK = ((3, 8, 7, (5, 4)), (4, 16, 14, (8, 7)))
    #: (caps, constant density of eta2) of the coordinate pairs on the bidisc; a
    #: density is resolved to the compared Fourier order only from caps 10 on
    COORD = ((8, 0.0), (10, 0.3))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        cases = []
        for i, (k00, c10, c01, c11) in enumerate(self.FOUR_BLOCK):
            rng = _rng(self.seed, 2, i)
            truths = {"nu1": scenario.scalar_measure(rng, 2), "nu2": scenario.scalar_measure(rng, 3),
                      "eta1": scenario.scalar_measure(rng, 2), "eta2": scenario.scalar_measure(rng, 1)}
            meas = {name: to_measure(t) for name, t in truths.items()}
            s10 = wl.build_shift_1v(meas["nu1"], c10)
            s01 = wl.build_shift_1v(meas["nu2"], c01)
            lam1, lam2 = np.exp(2j * np.pi * rng.uniform(size=2))
            pairs = [wl.commuting_unitary_pair(k00, _seed_int(rng)),
                     (s10, _scalar_operator(s10.dom, lam2)),
                     (_scalar_operator(s01.dom, lam1), s01),
                     wl.build_pair_2v(meas["eta1"], meas["eta2"], *c11)]
            (T1, T2), W = wl.scramble(wl.direct_sum(pairs), _seed_int(rng))
            dims = [k00, c10 + 1, c01 + 1, (c11[0] + 1) * (c11[1] + 1)]
            cols = {b: W.conj().T @ E for b, E in zip(BLOCKS, _embeddings(dims))}
            cases.append(dict(ops=(T1, T2), truths=truths, dims=tuple(dims), cols=cols,
                              what=f"four-block D={sum(dims)}"))
        for i, (caps, density) in enumerate(self.COORD):
            rng = _rng(self.seed, 3, i)
            truths = {"eta1": scenario.scalar_measure(rng, 2),
                      "eta2": scenario.scalar_measure(rng, 2, density)}
            T1, T2 = wl.build_pair_2v(to_measure(truths["eta1"]), to_measure(truths["eta2"]),
                                      caps, caps)
            D = (caps + 1) ** 2
            empty = np.zeros((D, 0), dtype=complex)
            cols = {"H00": empty, "H10": empty, "H01": empty, "H11": np.eye(D, dtype=complex)}
            cases.append(dict(ops=(T1, T2), truths=truths, dims=(0, 0, 0, D), cols=cols,
                              what=f"coordinate pair caps {caps}"))
        return cases

    def solve(self, cases):
        return [wl.wold_pair(*c["ops"]) for c in cases]

    def check(self, cases, out) -> Outcome:
        oc = Outcome(attempted=len(cases))
        for c, quad in zip(cases, out):
            checks.require(quad.block_dims() == c["dims"],
                           f"{c['what']}: block dims {quad.block_dims()} vs {c['dims']}")
            gram = c["ops"][0].dom.gram
            for b in BLOCKS:
                oc.truth.append(checks.projector_distance(gram, getattr(quad, b).basis, c["cols"][b]))
            for name, truth in c["truths"].items():
                got = quad.measures[name]
                oc.truth.append(checks.fourier_error(truth, (got.atoms, got.density)))
            oc.cert += list(quad.residuals.values())
        return oc


def _scalar_operator(space, lam):
    """lam * I, exactly unitary with no truncation shadow: its safe core is the whole space."""
    D = space.dim_total

    def full_core(margin, _D=D):
        return np.eye(_D, dtype=complex)

    return wl.OperatorModel(space, space, lam * np.eye(D), core_fn=full_core)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

class Identities:
    """Norm identities and build_V on certified model shifts and coordinate pairs."""

    #: caps of the one-variable model shifts, and unit vectors per shift
    ONE_VAR = (24, 48)
    ONE_VAR_VECTORS = 6
    #: caps of the coordinate pairs, and unit vectors per pair
    TWO_VAR = (6, 8)
    TWO_VAR_VECTORS = 3
    #: the vectors live on degrees at least this far below the caps
    MARGIN = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        ones, twos = [], []
        for i, caps in enumerate(self.ONE_VAR):
            rng = _rng(self.seed, 4, i)
            T = wl.build_shift_1v(to_measure(scenario.scalar_measure(rng, 2, 0.2 * i)), caps)
            idx = np.arange(caps + 1 - self.MARGIN)
            ones.append(dict(T=T, xs=_unit_vectors(rng, T.dom.gram, idx, self.ONE_VAR_VECTORS)))
        for i, caps in enumerate(self.TWO_VAR):
            rng = _rng(self.seed, 5, i)
            mu1 = to_measure(scenario.scalar_measure(rng, 2))
            mu2 = to_measure(scenario.scalar_measure(rng, 2))
            T1, T2 = wl.build_pair_2v(mu1, mu2, caps, caps)
            target = wl.build_space(mu1, mu2, caps, caps)
            top = caps - self.MARGIN
            idx = np.array([m * (caps + 1) + n for m in range(top + 1) for n in range(top + 1)])
            twos.append(dict(ops=(T1, T2), target=target,
                             xs=_unit_vectors(rng, T1.dom.gram, idx, self.TWO_VAR_VECTORS)))
        return ones, twos

    def solve(self, inputs):
        ones, twos = inputs
        one_res = [[wl.check_norm_identity(c["T"], x) for x in c["xs"]] for c in ones]
        two_res = []
        for c in twos:
            res = [wl.check_two_variable_identity(*c["ops"], x) for x in c["xs"]]
            two_res.append((res, wl.build_V(*c["ops"], c["target"])))
        return one_res, two_res

    def check(self, inputs, out) -> Outcome:
        ones, twos = inputs
        one_res, two_res = out
        oc = Outcome(attempted=0)
        for res in one_res:
            oc.attempted += len(res)
            oc.cert += res
        for c, (res, V) in zip(twos, two_res):
            oc.attempted += len(res) + 1
            oc.cert += res + [V.info[k] for k in ("isometry", "intertwine_1", "intertwine_2")]
            oc.truth += [checks.model_map_error(V.matrix, x) for x in c["xs"]]
        worst = max(r for res in one_res + [res for res, _ in two_res] for r in res)
        checks.require(worst < checks.IDENTITY_TOL, f"norm identity residual {worst:.2e}")
        return oc


def _unit_vectors(rng, gram, idx, count):
    """``count`` random vectors supported on the coordinates ``idx``, of unit Gram norm."""
    out = []
    for _ in range(count):
        x = np.zeros(gram.shape[0], dtype=complex)
        x[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        out.append(x / np.sqrt(np.vdot(x, gram @ x).real))
    return out


# ---------------------------------------------------------------------------
# scenario_batch
# ---------------------------------------------------------------------------

class ScenarioBatch:
    """`wold-lab run` on one generated config of small tasks, at ``--jobs`` jobs."""

    def __init__(self, seed: int, workdir: str, jobs: int = 1):
        self.seed = seed
        self.workdir = workdir
        self.jobs = jobs

    def setup(self):
        config, expect, failing = scenario.make_config(self.seed)
        path = os.path.join(self.workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        # what `wold-lab run` does before its first task: parse and build
        raw = cli.load_config(path)
        specs = [wl.InstanceSpec.from_json_dict(item) for item in raw["instances"]]
        for spec in specs:
            spec.build()
        return dict(path=path, expect=expect, failing=failing, n_tasks=len(raw["tasks"]))

    def solve(self, inputs):
        out = os.path.join(self.workdir, "report.json")
        argv = ["run", "--config", inputs["path"], "--out", out]
        if self.jobs != 1:
            argv += ["--jobs", str(self.jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def check(self, inputs, out) -> Outcome:
        code, report_path = out
        checks.require(code in (0, 2), f"wold-lab run exited with {code}")
        with open(report_path) as fh:
            report = json.load(fh)
        oc = Outcome(attempted=inputs["n_tasks"])
        checks.require(len(report["tasks"]) == inputs["n_tasks"], "report lists too few tasks")
        oc.failed = checks.count_failures(report, inputs["failing"])
        for task in report["tasks"]:
            if not task["passed"]:
                continue
            oc.cert.append(task["score"])
            oc.truth += scenario.check_task(task, inputs["expect"][task["scenario"]])
        oc.cli_tasks_s = sum(t["wall_time_s"] for t in report["tasks"])
        return oc


def make(name: str, seed: int, workdir: str, jobs: int = 1):
    if name == "single_ladder":
        return SingleLadder(seed)
    if name == "pair_fourblock":
        return PairFourBlock(seed)
    if name == "identities":
        return Identities(seed)
    if name == "scenario_batch":
        return ScenarioBatch(seed, workdir, jobs)
    raise ValueError(f"unknown workload {name!r}")
