"""Finite-dimensional operator core on a truncated Fock basis.

Everything downstream works with dense complex matrices in the number basis
of a reference oscillator with frequency ``omega_ref`` (hbar = m = 1).  The
canonical pair, the three quadratic generators K1 = p^2/2, K2 = x^2/2,
K3 = (px+xp)/2, density matrices, and expectation values are built here.

Truncation policy: operators are built at the working dimension N with no
padding.  Identities such as [x, p] = i hold exactly only away from the
truncation edge, so algebra checks are evaluated on an interior block and
states are monitored for population leaking into the top levels.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import SupportLeakError, ValidationError

# Tolerances used across the package (an order above double-precision
# accumulation noise for dims up to ~128).
HERMITICITY_TOL = 1e-12      # operator flag threshold
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-9
DENSITY_EIG_FLOOR = -1e-8
SUPPORT_LEAK_TOL = 1e-10

# Default interior margin: commutator identities of the quadratic generators
# are exact on levels 0..N-7 (pentadiagonal operators contaminate the top
# levels only).
INTERIOR_MARGIN = 6


@dataclass(frozen=True)
class BasisConfig:
    """Working basis: dimension, reference frequency, tail monitoring,
    and the operators built on it (``operators``)."""

    dim: int
    omega_ref: float
    tail_fraction: float = 0.1
    tail_threshold: float = 1e-8

    def __post_init__(self):
        if self.dim < 8:
            raise ValidationError(f"basis.dim must be >= 8, got {self.dim}")
        if not self.omega_ref > 0:
            raise ValidationError(f"basis.omega_ref must be > 0, got {self.omega_ref}")
        if not 0 < self.tail_fraction < 1:
            raise ValidationError(
                f"basis.tail_fraction must lie in (0,1), got {self.tail_fraction}")
        if not self.tail_threshold > 0:
            raise ValidationError(
                f"basis.tail_threshold must be > 0, got {self.tail_threshold}")

    @property
    def n_tail(self) -> int:
        """Number of top levels summed into the tail-population diagnostic."""
        return max(1, int(round(self.tail_fraction * self.dim)))

    @property
    def interior_dim(self) -> int:
        return self.dim - INTERIOR_MARGIN

    @functools.cached_property
    def operators(self) -> tuple[FockOperator, ...]:
        """(x, p, K1, K2, K3), built on first access and kept in the
        instance ``__dict__``: not a field, so equality, hashing and
        ``dataclasses.fields`` do not see it.  Every model, invariant and
        record on the basis reads these five objects.

        The banded density kernel of ``lindblad`` holds only the diagonals
        0 and +-2, and its stages and the observable transport read L^dag
        as L, so the build refuses a generator of another dimension, one
        with an entry off those diagonals, and one that is not exactly
        Hermitian.
        """
        x_op, p_op = build_canonical(self)
        ops = (x_op, p_op, *build_su11_generators(x_op, p_op))
        for name, gen in zip(("k1", "k2", "k3"), ops[2:]):
            if gen.dim != self.dim:
                raise ValidationError(
                    f"generator dimension {gen.dim} does not match basis "
                    f"{self.dim}")
            rows, cols = np.nonzero(gen.entries)
            off = ~np.isin(rows - cols, (-2, 0, 2))
            if off.any():
                i, j = rows[off][0], cols[off][0]
                raise ValidationError(
                    f"generator {name} couples Fock levels {i} and {j}, off "
                    "the diagonals 0 and +-2 (entry "
                    f"{gen.entries[i, j]:.3e}); the banded density evolution "
                    "would drop it")
            dev = gen.herm_deviation()
            if not dev == 0.0:  # also trips on nan
                raise ValidationError(
                    f"generator {name} is not Hermitian (deviation "
                    f"{dev:.3e}); the observable transport needs a Hermitian "
                    "jump operator, and the density stages use L as L^dag, "
                    "so the generators must be exactly Hermitian")
        return ops


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense complex matrix on the truncated Fock space.

    Its Hermiticity deviation max|A - A^dag| is computed once, on
    construction, and kept.
    """

    entries: np.ndarray
    _herm_dev: float = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"operator must be square, got shape {entries.shape}")
        entries = _readonly(entries)
        if not np.all(np.isfinite(entries.view(float))):
            raise ValidationError("operator entries must be finite")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_herm_dev",
                           max_abs(_with_dagger(np.subtract, entries)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def hermitian(self) -> bool:
        return self._herm_dev <= HERMITICITY_TOL

    def herm_deviation(self) -> float:
        return self._herm_dev


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite state, dense in the Fock basis.

    Its trace, Hermiticity deviation and minimum eigenvalue
    (``_state_health``) are computed together on first read and kept.
    With ``validate=False`` the tolerance checks are skipped; the evolution
    engine uses that to record diagnostics for states it is about to flag
    instead of refusing to hold them.  A validated state must be finite,
    as ``eigvalsh`` fails on a non-finite one.
    """

    entries: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        entries = _readonly(np.asarray(self.entries))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"state must be square, got shape {entries.shape}")
        object.__setattr__(self, "entries", entries)
        if validate:
            if not np.all(np.isfinite(entries.view(float))):
                raise ValidationError("state entries must be finite")
            tr, dev, lo = self._health
            if dev > DENSITY_HERM_TOL:
                raise ValidationError(f"state not Hermitian: max|rho-rho^†| = {dev:.3e}")
            if abs(tr - 1.0) > DENSITY_TRACE_TOL:
                raise ValidationError(f"state trace {tr!r} differs from 1")
            if lo < DENSITY_EIG_FLOOR:
                raise ValidationError(f"state has negative eigenvalue {lo:.3e}")

    @functools.cached_property
    def _health(self) -> tuple[float, float, float]:
        return _state_health(self.entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return self._health[0]

    def herm_deviation(self) -> float:
        return self._health[1]

    def min_eigenvalue(self) -> float:
        return self._health[2]


@dataclass(frozen=True)
class StateSpec:
    """Initial-state menu: coherent / fock / thermal / invariant_ground."""

    kind: str
    beta: complex = 0.0 + 0.0j
    fock_n: int = 0
    nbar: float = 0.0

    KINDS = ("coherent", "fock", "thermal", "invariant_ground")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"state.kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kind == "fock" and self.fock_n < 0:
            raise ValidationError("state.fock_n must be >= 0")
        if self.kind == "thermal" and self.nbar < 0:
            raise ValidationError("state.nbar must be >= 0")

    def check_against(self, cfg: BasisConfig):
        """Keep the requested support well away from the truncation edge."""
        if self.kind == "coherent" and abs(self.beta) ** 2 >= cfg.dim / 4:
            raise ValidationError(
                f"|beta|^2 = {abs(self.beta)**2:.3g} too large for dim {cfg.dim} (needs < dim/4)")
        if self.kind == "fock" and self.fock_n >= cfg.dim / 2:
            raise ValidationError(
                f"fock_n = {self.fock_n} too large for dim {cfg.dim} (needs < dim/2)")
        if self.kind == "thermal" and self.nbar >= cfg.dim / 8:
            raise ValidationError(
                f"nbar = {self.nbar} too large for dim {cfg.dim} (needs < dim/8)")


# ---------------------------------------------------------------------------
# array helpers (raw ndarray in, raw ndarray out; used throughout the engine)

def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _with_dagger(ufunc, arr: np.ndarray, out=None) -> np.ndarray:
    """ufunc(arr, arr^dag) for a square ``arr``, formed in ``out`` (an
    array of its shape that does not overlap it) or, when None, in one
    fresh array: arr^dag is copied in and conjugated in place, because
    numpy 2.4 conjugates a transposed operand through a temporary of the
    operand's size."""
    if out is None:
        out = np.empty(arr.shape, arr.dtype)
    np.copyto(out, arr.T)
    np.conjugate(out, out)
    return ufunc(arr, out, out)


def _state_health(arr: np.ndarray, out=None) -> tuple[float, float, float]:
    """(trace, Hermiticity deviation, minimum eigenvalue) of a finite
    square state array: Re tr rho, max|rho - rho^dag| and the lowest
    eigenvalue of its Hermitian part (rho + rho^dag) / 2, the formulas
    ``DensityMatrix`` and every density record read.  Both daggered
    forms are made in ``out`` when given
    (``_with_dagger``), one after the other, so only ``eigvalsh``'s copy
    and the real moduli of the deviation are allocated."""
    tr = float(np.trace(arr).real)
    dev = max_abs(_with_dagger(np.subtract, arr, out))
    sym = _with_dagger(np.add, arr, out)
    sym *= 0.5
    return tr, dev, float(np.linalg.eigvalsh(sym)[0])


def interior_block(m: np.ndarray, k: int) -> np.ndarray:
    """Compression onto the lowest k Fock levels."""
    return m[:k, :k]


def trace_pair(a: np.ndarray, b: np.ndarray, out=None) -> complex:
    """tr[a @ b] without forming the product: the sum of the entries of
    the C-contiguous a * b^T, formed in ``out`` when given (an N x N
    C-contiguous array, so the sum has the same bits)."""
    return complex(np.sum(np.multiply(a, b.T, out=out)))


# ---------------------------------------------------------------------------
# constructors

def build_canonical(cfg: BasisConfig) -> tuple[FockOperator, FockOperator]:
    """Position and momentum matrices in the number basis of omega_ref.

    x = (a + a†)/sqrt(2 w), p = i sqrt(w/2) (a† - a).  Both come out exactly
    Hermitian; [x, p] = i holds on levels 0..N-2 (the corner element of the
    commutator is spoiled by truncation).
    """
    n = np.arange(1, cfg.dim)
    lower = np.diag(np.sqrt(n.astype(float)), 1)  # a|n> = sqrt(n)|n-1>
    raise_op = lower.T
    w = cfg.omega_ref
    x = (lower + raise_op) / np.sqrt(2.0 * w)
    p = 1j * np.sqrt(w / 2.0) * (raise_op - lower)
    return FockOperator(x), FockOperator(p)


def build_su11_generators(
    x: FockOperator, p: FockOperator
) -> tuple[FockOperator, FockOperator, FockOperator]:
    """Quadratic generators K1 = p²/2, K2 = x²/2, K3 = (px+xp)/2.

    On ``build_canonical``'s pair each has entries only on the diagonals
    0 and +-2 and is exactly Hermitian, which the banded density kernel
    and the observable transport of ``lindblad`` take for granted
    (``BasisConfig.operators`` refuses a build without them).
    """
    if x.dim != p.dim:
        raise ValidationError(f"dimension mismatch: {x.dim} vs {p.dim}")
    xm, pm = x.entries, p.entries
    k1 = 0.5 * (pm @ pm)
    k2 = 0.5 * (xm @ xm)
    k3 = 0.5 * (pm @ xm + xm @ pm)
    return FockOperator(k1), FockOperator(k2), FockOperator(k3)


def check_su11_relations(
    k1: FockOperator, k2: FockOperator, k3: FockOperator, interior_dim: int
) -> tuple[float, float, float]:
    """Residual norms of the three commutation relations on an interior block.

    Returns max-norms of [K1,K2]+iK3, [K2,K3]-2iK2, [K3,K1]-2iK1 compressed
    onto levels 0..interior_dim-1.  The relations are exact away from the
    truncation edge; at full dimension the edge contaminates them.
    """
    dim = k1.dim
    if not (k2.dim == dim and k3.dim == dim):
        raise ValidationError("generator dimensions differ")
    if interior_dim > dim or interior_dim < 1:
        raise ValidationError(f"interior_dim {interior_dim} out of range for dim {dim}")
    a, b, c = k1.entries, k2.entries, k3.entries
    r1 = commutator(a, b) + 1j * c
    r2 = commutator(b, c) - 2j * b
    r3 = commutator(c, a) - 2j * a
    k = interior_dim
    return (
        max_abs(interior_block(r1, k)),
        max_abs(interior_block(r2, k)),
        max_abs(interior_block(r3, k)),
    )


def build_state(
    spec: StateSpec, cfg: BasisConfig, invariant_op: FockOperator | None = None
) -> DensityMatrix:
    """Construct the initial density matrix requested by ``spec``.

    Coherent and thermal states are renormalized after truncation; if the
    pre-renormalization trace is off by more than SUPPORT_LEAK_TOL the
    requested state does not fit the basis and a SupportLeakError is raised.
    """
    spec.check_against(cfg)
    dim = cfg.dim

    if spec.kind == "fock":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[spec.fock_n, spec.fock_n] = 1.0
        return DensityMatrix(rho)

    if spec.kind == "coherent":
        psi = np.zeros(dim, dtype=complex)
        psi[0] = np.exp(-0.5 * abs(spec.beta) ** 2)
        for n in range(1, dim):
            psi[n] = psi[n - 1] * spec.beta / np.sqrt(n)
        norm = float(np.sum(np.abs(psi) ** 2))
        _check_support(norm, spec, cfg)
        psi /= np.sqrt(norm)
        return DensityMatrix(_projector(psi))

    if spec.kind == "thermal":
        if spec.nbar == 0:
            weights = np.zeros(dim)
            weights[0] = 1.0
        else:
            q = spec.nbar / (spec.nbar + 1.0)
            weights = (1.0 - q) * q ** np.arange(dim)
        norm = float(weights.sum())
        _check_support(norm, spec, cfg)
        return DensityMatrix(np.diag(weights / norm).astype(complex))

    # invariant_ground
    if invariant_op is None:
        raise ValidationError("invariant_ground state needs the invariant operator")
    if not invariant_op.hermitian:
        raise ValidationError("invariant operator must be Hermitian")
    _, vecs = np.linalg.eigh(invariant_op.entries)
    ground = vecs[:, 0]
    return DensityMatrix(_projector(ground))


def _projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|, exactly Hermitian.

    A complex multiply that fuses a multiply-add rounds psi_i conj(psi_j)
    and the conjugate of psi_j conj(psi_i) apart in the last bit, so the
    outer product is averaged with its conjugate transpose; for a real
    psi that returns the outer product bit for bit.
    """
    return 0.5 * _with_dagger(np.add, np.outer(psi, psi.conj()))


def _check_support(norm: float, spec: StateSpec, cfg: BasisConfig):
    deficit = abs(1.0 - norm)
    if deficit > SUPPORT_LEAK_TOL:
        raise SupportLeakError(
            f"{spec.kind} state loses trace {deficit:.3e} to truncation at dim {cfg.dim}")


def expectation(op: FockOperator, rho: DensityMatrix) -> float:
    """Re tr[A rho] for Hermitian A; rejects inputs that make it complex."""
    if op.dim != rho.dim:
        raise ValidationError(f"dimension mismatch: {op.dim} vs {rho.dim}")
    return _real_pairing(op, rho.entries)


def _real_pairing(op: FockOperator, arr: np.ndarray, out=None) -> float:
    """``expectation`` on the raw array of a state of the operator's
    dimension, which the density run's record reduces without building a
    ``DensityMatrix``; ``out`` is ``trace_pair``'s."""
    if not op.hermitian:
        raise ValidationError(
            f"observable is not Hermitian (deviation {op.herm_deviation():.3e})")
    val = trace_pair(op.entries, arr, out)
    if abs(val.imag) > 1e-10:
        raise ValidationError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)
