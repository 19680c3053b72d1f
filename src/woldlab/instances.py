"""Deterministic test-instance builders.

Model shifts on the graded spaces, block direct sums with unitary parts,
and seeded unitary scrambling.  Everything is a pure function of its
arguments plus a 64-bit seed, so instances are reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .config import DEFAULTS
from .errors import AssumptionError
from .measures import CircleMeasure
from .operators import IndexCore, OperatorModel, Subspace, direct_sum_core_fn, scrambled_core_fns
from .space import (
    EuclideanSpace,
    GradedPolySpace,
    HilbertSpace,
    build_space,
    build_space_1v,
    coordinate_shift_matrix,
)


# ---------------------------------------------------------------------------
# random primitives
# ---------------------------------------------------------------------------

def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the phase
    of R's diagonal absorbed (the standard construction)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def random_psd(dim: int, rng, eigenbasis: np.ndarray = None, scale: float = 1.0) -> np.ndarray:
    lam = rng.uniform(0.2, 1.2, dim) * scale
    if eigenbasis is None:
        eigenbasis = random_unitary(dim, int(rng.integers(0, 2**62)))
    return (eigenbasis * lam) @ eigenbasis.conj().T


def _random_angles(rng, n: int, separation: float = 1e-3) -> np.ndarray:
    for _ in range(1000):
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]])) if n else np.array([1.0])
        if n <= 1 or gaps.min() > separation:
            return angles
    raise RuntimeError("could not draw separated angles")


def random_atomic_measure(dim: int, n_atoms: int, seed: int,
                          eigenbasis: np.ndarray = None,
                          density_scale: float = 0.0) -> CircleMeasure:
    """Random positive measure with the given number of atoms.

    Passing a shared ``eigenbasis`` makes all weights commute, which is
    what the two-variable space requires of a measure pair with d > 1.
    """
    rng = np.random.default_rng(seed)
    if dim > 1 and eigenbasis is None:
        eigenbasis = random_unitary(dim, seed + 1)
    angles = _random_angles(rng, n_atoms)
    atoms = tuple((float(a), random_psd(dim, rng, eigenbasis)) for a in angles)
    density = density_scale * np.eye(dim) if density_scale else None
    return CircleMeasure(dim=dim, atoms=atoms, density=density)


def random_measure_pair(dim: int, n_atoms: int, seed: int) -> tuple:
    """Two random atomic measures whose weights commute pairwise."""
    basis = random_unitary(dim, seed) if dim > 1 else None
    mu1 = random_atomic_measure(dim, n_atoms, seed + 10, eigenbasis=basis)
    mu2 = random_atomic_measure(dim, n_atoms, seed + 20, eigenbasis=basis)
    return mu1, mu2


# ---------------------------------------------------------------------------
# model shifts
# ---------------------------------------------------------------------------

def _graded_core_fn(space: GradedPolySpace, var: int):
    def core(margin: int, _space=space, _var=var):
        return IndexCore(_space, _space.core_indices(margin, var=_var))
    return core


def _full_core_fn(space):
    def core(margin: int, _space=space):
        return IndexCore(_space, np.arange(_space.dim_total))
    return core


def build_shift_1v(mu: CircleMeasure, N: int) -> OperatorModel:
    """Multiplication by z on the truncated one-variable space of mu.

    The matrix is the coefficient shift from the caps-(N-1) truncation
    into the caps-N one, extended by zero on the top degree; all identity
    checks run on the safe core below the cap.
    """
    space = build_space_1v(mu, N)
    T = coordinate_shift_matrix(space, 1)
    return OperatorModel(space, space, T, core_fn=_graded_core_fn(space, 1))


def build_pair_2v(mu1: CircleMeasure, mu2: CircleMeasure, N1: int, N2: int) -> tuple:
    """The coordinate shift pair on the graded bidisc space of (mu1, mu2)."""
    space = build_space(mu1, mu2, N1, N2)
    T1 = OperatorModel(space, space, coordinate_shift_matrix(space, 1),
                       core_fn=_graded_core_fn(space, 1))
    T2 = OperatorModel(space, space, coordinate_shift_matrix(space, 2),
                       core_fn=_graded_core_fn(space, 2))
    return T1, T2


def unitary_operator(U: np.ndarray) -> OperatorModel:
    """A unitary matrix as an operator on Euclidean space."""
    U = np.asarray(U, dtype=complex)
    sp = EuclideanSpace(U.shape[0])
    err = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) if U.size else 0.0
    if err > DEFAULTS.unitary * 100:
        raise AssumptionError(f"matrix is not unitary (deviation {err:.2e})")
    return OperatorModel(sp, sp, U)


def commuting_unitary_pair(dim: int, seed: int) -> tuple:
    """Two unitaries with a common eigenbasis (hence doubly commuting)."""
    rng = np.random.default_rng(seed)
    Q = random_unitary(dim, seed + 1)
    U = (Q * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ Q.conj().T
    V = (Q * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) @ Q.conj().T
    sp = EuclideanSpace(dim)
    return OperatorModel(sp, sp, U), OperatorModel(sp, sp, V)


# ---------------------------------------------------------------------------
# direct sums and scrambling
# ---------------------------------------------------------------------------

def _block_diag_space(spaces) -> HilbertSpace:
    gram = sla.block_diag(*[sp.gram for sp in spaces])
    return HilbertSpace(np.asarray(gram, dtype=complex))


def direct_sum(parts):
    """Block-diagonal direct sum of operators, or of operator pairs.

    Accepts a list of OperatorModel (returning one operator) or a list of
    (OperatorModel, OperatorModel) pairs (returning a pair on the summed
    space).  Gram matrices and safe cores stack blockwise; the summands of
    a pair share one space, so their coordinate cores intersect by index.
    """
    if not parts:
        raise ValueError("direct_sum of nothing")
    if isinstance(parts[0], (tuple, list)):
        firsts = [p[0] for p in parts]
        seconds = [p[1] for p in parts]
        if any(not isinstance(p, (tuple, list)) or len(p) != 2 for p in parts):
            raise ValueError("mixing single operators and pairs")
        space = _block_diag_space([op.dom for op in firsts])
        return (_assemble_sum(firsts, space), _assemble_sum(seconds, space))
    if any(isinstance(p, (tuple, list)) for p in parts):
        raise ValueError("mixing single operators and pairs")
    space = _block_diag_space([op.dom for op in parts])
    return _assemble_sum(parts, space)


def _assemble_sum(ops, space: HilbertSpace) -> OperatorModel:
    for op in ops:
        if not op.is_square:
            raise ValueError("direct_sum needs square blocks")
    mat = sla.block_diag(*[op.matrix for op in ops])
    return OperatorModel(space, space, np.asarray(mat, dtype=complex),
                         core_fn=direct_sum_core_fn(ops, space))


def block_embeddings(ops) -> list:
    """Coordinate inclusion matrices of the summands of a direct sum."""
    dims = [op.dom.dim_total if isinstance(op, OperatorModel) else op[0].dom.dim_total
            for op in ops]
    total = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(int)
    out = []
    for dim, off in zip(dims, offsets):
        E = np.zeros((total, dim), dtype=complex)
        E[off:off + dim] = np.eye(dim)
        out.append(E)
    return out


def scramble(ops, seed: int):
    """Conjugate an operator (or pair) and its space by one seeded unitary.

    The map x -> W x is an isometry between the scrambled and original
    spaces, so every Gram-aware residual is preserved; safe cores are
    carried along, mapped by W^H.  The operators of a pair share one W^H,
    so their coordinate cores intersect by index.
    """
    pair = isinstance(ops, (tuple, list))
    group = list(ops) if pair else [ops]
    W = random_unitary(group[0].dom.dim_total, seed)
    Wh = W.conj().T
    space = HilbertSpace(Wh @ group[0].dom.gram @ W)
    out = tuple(OperatorModel(space, space, Wh @ op.matrix @ W, core_fn=fn)
                for op, fn in zip(group, scrambled_core_fns(group, Wh, space)))
    return (out if pair else out[0]), W


# ---------------------------------------------------------------------------
# packaged instances with ground truth
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    """An operator (or pair) plus the ground truth of its construction."""

    operators: tuple          # (T,) or (T1, T2)
    space: HilbertSpace
    truth: dict = field(default_factory=dict)

    @property
    def is_pair(self) -> bool:
        return len(self.operators) == 2


def _unitaries_plus_shifts(unitary_dims, seed: int, measures, caps: int,
                           scramble_seed: int = None) -> tuple:
    """(T, H0, H1) for U_1 (+) ... (+) M_z(mu_1) (+) ..., optionally scrambled.

    The i-th unitary block is ``random_unitary(k_i, seed + 7 i)``, every
    shift is at ``caps``; H0 and H1 are the unitary and shift summands as
    subspaces of the (scrambled) space.
    """
    parts = [unitary_operator(random_unitary(k, seed + 7 * i))
             for i, k in enumerate(unitary_dims)]
    parts += [build_shift_1v(mu, caps) for mu in measures]
    if not parts:
        raise ValueError("direct_sum instance with no blocks")
    T = direct_sum(parts) if len(parts) > 1 else parts[0]
    embeds = block_embeddings(parts)
    n_unitary = len(unitary_dims)
    H0_cols = (np.hstack(embeds[:n_unitary]) if n_unitary
               else np.zeros((T.dom.dim_total, 0)))
    H1_cols = (np.hstack(embeds[n_unitary:]) if len(parts) > n_unitary
               else np.zeros((T.dom.dim_total, 0)))
    if scramble_seed is not None:
        T, W = scramble(T, scramble_seed)
        H0_cols = W.conj().T @ H0_cols
        H1_cols = W.conj().T @ H1_cols
    return T, Subspace.from_columns(T.dom, H0_cols), Subspace.from_columns(T.dom, H1_cols)


def make_single_wold_instance(unitary_dim: int, mu: CircleMeasure, caps: int,
                              seed: int, scramble_seed: int = None) -> Instance:
    """Scrambled U_k (+) M_z(mu): ground truth for the single decomposition."""
    T, H0, H1 = _unitaries_plus_shifts((unitary_dim,) if unitary_dim else (), seed,
                                       (mu,), caps, scramble_seed)
    truth = {"H0": H0, "H1": H1, "measure": mu, "dims": (unitary_dim, (caps + 1) * mu.dim)}
    return Instance(operators=(T,), space=T.dom, truth=truth)


def make_four_block_instance(k00: int, nu1: CircleMeasure, caps10: int,
                             nu2: CircleMeasure, caps01: int,
                             eta1: CircleMeasure, eta2: CircleMeasure,
                             caps11: tuple, seed: int,
                             scramble_seed: int = None) -> Instance:
    """Canonical four-block pair with known dimensions and measures.

    Block structure: (U0, V0) commuting unitaries on C^k00; (M_z, lambda I)
    on the space of nu1; (lambda' I, M_z) on the space of nu2; the
    coordinate pair on the bidisc space of (eta1, eta2).
    """
    rng = np.random.default_rng(seed)
    pairs = []
    if k00:
        pairs.append(commuting_unitary_pair(k00, seed + 1))
    # unimodular scalars are exactly unitary with no truncation shadow, so
    # they carry the full space as safe core
    s10 = build_shift_1v(nu1, caps10)
    lam2 = np.exp(1j * rng.uniform(0, 2 * np.pi))
    pairs.append((s10, OperatorModel(s10.dom, s10.dom,
                                     lam2 * np.eye(s10.dom.dim_total),
                                     core_fn=_full_core_fn(s10.dom))))
    s01 = build_shift_1v(nu2, caps01)
    lam1 = np.exp(1j * rng.uniform(0, 2 * np.pi))
    pairs.append((OperatorModel(s01.dom, s01.dom,
                                lam1 * np.eye(s01.dom.dim_total),
                                core_fn=_full_core_fn(s01.dom)), s01))
    p11 = build_pair_2v(eta1, eta2, caps11[0], caps11[1])
    pairs.append(p11)

    (T1, T2) = direct_sum(pairs)
    embeds = block_embeddings(pairs)
    if not k00:
        embeds = [np.zeros((T1.dom.dim_total, 0))] + embeds
    names = ["H00", "H10", "H01", "H11"]
    cols = dict(zip(names, embeds))
    W = None
    if scramble_seed is not None:
        (T1, T2), W = scramble((T1, T2), scramble_seed)
        cols = {k: W.conj().T @ v for k, v in cols.items()}
    truth = {
        "blocks": {k: Subspace.from_columns(T1.dom, v) for k, v in cols.items()},
        "measures": {"nu1": nu1, "nu2": nu2, "eta1": eta1, "eta2": eta2},
        "dims": tuple(v.shape[1] for v in cols.values()),
    }
    return Instance(operators=(T1, T2), space=T1.dom, truth=truth)


# ---------------------------------------------------------------------------
# declarative instance specs (JSON)
# ---------------------------------------------------------------------------

KINDS = ("shift1v", "pair2v", "direct_sum", "scrambled")


@dataclass(frozen=True)
class InstanceSpec:
    """Declarative description of a test instance.

    kind:
      - ``shift1v``: M_z of measures[0] at caps[0];
      - ``pair2v``: coordinate pair of measures[0..1] at caps; its truth
        names them ``eta1`` and ``eta2``, the measures of the analytic block;
      - ``direct_sum``: one unitary block per entry of unitary_dims plus
        one 1-variable shift per measure (all at caps[0]), as one operator;
      - ``scrambled``: direct_sum conjugated by the seeded unitary.
    """

    kind: str
    measures: tuple = ()
    caps: tuple = (8, 0)
    unitary_dims: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}; expected one of {KINDS}")
        if min(self.caps) < 0:
            raise ValueError("caps must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "measures": [m.to_json_dict() for m in self.measures],
            "caps": list(self.caps),
            "unitary_dims": list(self.unitary_dims),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "InstanceSpec":
        return cls(
            kind=data["kind"],
            measures=tuple(CircleMeasure.from_json_dict(m) for m in data.get("measures", [])),
            caps=tuple(data.get("caps", [8, 0])),
            unitary_dims=tuple(data.get("unitary_dims", [])),
            seed=int(data.get("seed", 0)),
        )

    def digest(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def build(self) -> Instance:
        caps0 = int(self.caps[0])
        if self.kind in ("shift1v", "direct_sum", "scrambled") and self.measures and caps0 < 4:
            raise ValueError("shift instances need caps >= 4")
        if self.kind == "shift1v":
            T = build_shift_1v(self.measures[0], caps0)
            return Instance(operators=(T,), space=T.dom,
                            truth={"measure": self.measures[0]})
        if self.kind == "pair2v":
            T1, T2 = build_pair_2v(self.measures[0], self.measures[1],
                                   int(self.caps[0]), int(self.caps[1]))
            return Instance(operators=(T1, T2), space=T1.dom,
                            truth={"measures": dict(zip(("eta1", "eta2"), self.measures))})
        T, H0, H1 = _unitaries_plus_shifts(self.unitary_dims, self.seed, self.measures, caps0,
                                           self.seed if self.kind == "scrambled" else None)
        truth = {"H0": H0, "H1": H1, "measures": tuple(self.measures)}
        return Instance(operators=(T,), space=T.dom, truth=truth)
