"""Uniform 1D mesh, nodal scalar fields, and the model's coefficient bundle.

Everything here is immutable after construction; instances can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatchError, ValidationError

NEUMANN = "neumann"
DIRICHLET = "dirichlet"
ROBIN = "robin"
BC_KINDS = (NEUMANN, DIRICHLET, ROBIN)

COEFFICIENT_NAMES = ("d1", "d2", "rho", "sigma1", "sigma2", "beta", "mu", "h_u")


class Mesh1D:
    """Uniform mesh on [a, b] with n nodes and spacing h = (b - a)/(n - 1)."""

    __slots__ = ("a", "b", "n", "h", "nodes")

    def __init__(self, a: float, b: float, n: int):
        a = float(a)
        b = float(b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValidationError("mesh endpoints must be finite")
        if not a < b:
            raise ValidationError(f"mesh requires a < b, got a={a}, b={b}")
        if int(n) != n or n < 3:
            raise ValidationError(f"mesh requires an integer n >= 3, got {n}")
        self.a = a
        self.b = b
        self.n = int(n)
        self.h = (b - a) / (self.n - 1)
        nodes = np.linspace(a, b, self.n)
        nodes.setflags(write=False)
        self.nodes = nodes

    @property
    def interior(self) -> slice:
        return slice(1, self.n - 1)

    def __eq__(self, other):
        return (
            isinstance(other, Mesh1D)
            and self.a == other.a
            and self.b == other.b
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.a, self.b, self.n))

    def __repr__(self):
        return f"Mesh1D(a={self.a}, b={self.b}, n={self.n})"


def build_mesh(a: float, b: float, n: int) -> Mesh1D:
    """Uniform mesh on [a, b] with n nodes; rejects a >= b and n < 3."""
    return Mesh1D(a, b, n)


class ScalarField:
    """Nodal values of a function on a mesh (length n, all finite)."""

    __slots__ = ("mesh", "values")

    def __init__(self, mesh: Mesh1D, values):
        vals = np.array(values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != mesh.n:
            raise ValidationError(
                f"field length {vals.shape} does not match mesh node count {mesh.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field values must all be finite")
        vals.setflags(write=False)
        self.mesh = mesh
        self.values = vals

    def __repr__(self):
        return f"ScalarField({self.mesh!r}, min={self.values.min():g}, max={self.values.max():g})"


def field_from_constant(mesh: Mesh1D, c: float) -> ScalarField:
    """Constant field; non-finite c is rejected."""
    if not np.isfinite(c):
        raise ValidationError(f"constant field value must be finite, got {c}")
    return ScalarField(mesh, np.full(mesh.n, float(c)))


def sup_distance(f: ScalarField, g: ScalarField) -> float:
    """Max over nodes of |f - g|; the two fields must share a mesh."""
    if f.mesh != g.mesh:
        raise MeshMismatchError(f"fields live on different meshes: {f.mesh} vs {g.mesh}")
    return float(np.abs(f.values - g.values).max())


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary closure of the divergence-form operator.

    kind is one of "neumann", "dirichlet", "robin".  Robin means
    (outward derivative) + b * u = 0 with b >= 0 sampled at the two
    endpoints; Neumann is Robin with b = 0; Dirichlet imposes u = 0.
    """

    kind: str
    robin_b: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValidationError(f"unknown boundary kind {self.kind!r}; expected one of {BC_KINDS}")
        if self.kind == ROBIN:
            if self.robin_b is None:
                raise ValidationError("robin boundary requires robin_b=(b_left, b_right)")
            bl, br = self.robin_b
            if not (np.isfinite(bl) and np.isfinite(br) and bl >= 0 and br >= 0):
                raise ValidationError(f"robin coefficients must be finite and >= 0, got {self.robin_b}")
            object.__setattr__(self, "robin_b", (float(bl), float(br)))
        elif self.robin_b is not None:
            raise ValidationError(f"robin_b only applies to robin boundaries, not {self.kind!r}")

    @classmethod
    def neumann(cls) -> "BoundarySpec":
        return cls(NEUMANN)

    @classmethod
    def dirichlet(cls) -> "BoundarySpec":
        return cls(DIRICHLET)

    @classmethod
    def robin(cls, b_left: float, b_right: float) -> "BoundarySpec":
        return cls(ROBIN, (b_left, b_right))


def check_coefficient(name: str, field: ScalarField) -> None:
    """Raise ValidationError unless field may serve as coefficient name:
    h_u nonnegative and not identically zero, every other one strictly positive."""
    if name == "h_u":
        if field.values.min() < 0:
            raise ValidationError("h_u must be nonnegative at every node")
        if field.values.max() <= 0:
            raise ValidationError("h_u must not be identically zero")
    elif field.values.min() <= 0:
        raise ValidationError(f"{name} must be strictly positive at every node")


@dataclass(frozen=True)
class CoefficientSet:
    """The eight model coefficients as fields over one shared mesh.

    d1, d2, rho, sigma1, sigma2, beta, mu must be strictly positive at
    every node; h_u must be nonnegative with a positive maximum.
    """

    d1: ScalarField
    d2: ScalarField
    rho: ScalarField
    sigma1: ScalarField
    sigma2: ScalarField
    beta: ScalarField
    mu: ScalarField
    h_u: ScalarField

    def __post_init__(self):
        mesh = self.d1.mesh
        for name in COEFFICIENT_NAMES:
            field = getattr(self, name)
            if field.mesh != mesh:
                raise MeshMismatchError(f"coefficient {name} lives on a different mesh")
            check_coefficient(name, field)

    @property
    def mesh(self) -> Mesh1D:
        return self.d1.mesh

    @classmethod
    def from_constants(cls, mesh: Mesh1D, **values) -> "CoefficientSet":
        """Build a coefficient set from per-name constants (tests, examples)."""
        unknown = set(values) - set(COEFFICIENT_NAMES)
        if unknown:
            raise ValidationError(f"unknown coefficient names: {sorted(unknown)}")
        missing = set(COEFFICIENT_NAMES) - set(values)
        if missing:
            raise ValidationError(f"missing coefficient names: {sorted(missing)}")
        fields = {k: field_from_constant(mesh, v) for k, v in values.items()}
        return cls(**fields)
