"""Division-algebra parameterization and partition combinatorics.

Everything downstream (Jack polynomials, hypergeometric series, Wishart
eigenvalue laws) is indexed by integer partitions and parameterized by the
real dimension ``beta`` of a normed division algebra, beta in {1, 2, 4, 8},
with the companion parameter ``alpha = 2/beta``.  :func:`hook_product` keeps
hook lengths as exact rationals, the reference that the exact Jack oracle of
the tests reads; the library no longer calls it.  The normalization constant
(``jack._log_nu``) takes the same hooks in floats, which are exact because
alpha is a power of two, and the series kernels price strip coefficients as
products of paired float hook ratios, grouped into row-pair tables
(``jack.JackTable._coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


class DomainError(ValueError):
    """A parameter violates the validity condition of a formula."""


class UnsupportedParameterError(ValueError):
    """A parameter combination outside the supported family."""


_VALID_BETAS = (1, 2, 4, 8)


@dataclass(frozen=True)
class DivisionAlgebra:
    """The beta parameter of a real normed division algebra.

    ``beta`` is the real dimension (1, 2, 4 or 8); ``alpha = 2/beta`` is the
    equivalent parameter used by the symmetric-function literature.  The
    product ``alpha * beta == 2`` holds exactly because ``alpha`` is kept as
    a :class:`~fractions.Fraction`.
    """

    beta: int

    def __post_init__(self):
        if self.beta not in _VALID_BETAS:
            raise UnsupportedParameterError(
                f"beta must be one of {_VALID_BETAS}, got {self.beta!r}"
            )

    @property
    def alpha(self) -> Fraction:
        return Fraction(2, self.beta)

    def __repr__(self):
        return f"DivisionAlgebra(beta={self.beta})"


REAL = DivisionAlgebra(1)
COMPLEX = DivisionAlgebra(2)
QUATERNION = DivisionAlgebra(4)
OCTONION = DivisionAlgebra(8)


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of nonnegative integers.

    Trailing zeros are stripped on construction, so ``Partition((3, 1, 0))``
    and ``Partition((3, 1))`` are the same value.  The empty partition is a
    first-class value of weight 0.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p < 0 for p in parts):
            raise DomainError(f"partition parts must be nonnegative, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError(f"partition parts must be weakly decreasing, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-based), 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def cells(self):
        """Young-diagram cells (i, j), 1-based, row-major order."""
        return [(i + 1, j + 1) for i, p in enumerate(self.parts) for j in range(p)]

    def __str__(self):
        return format_partition(self)

    def __iter__(self):
        return iter(self.parts)


def format_partition(p: Partition) -> str:
    """Serialize as comma-joined parts in brackets, e.g. ``[3,1]``; ``[]`` if empty."""
    return "[" + ",".join(str(x) for x in p.parts) + "]"


def parse_partition(text: str) -> Partition:
    """Inverse of :func:`format_partition`; also accepts bare ``3,1`` forms."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return Partition(())
    try:
        parts = tuple(int(tok) for tok in s.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)


@lru_cache(maxsize=None)
def _partition_tuples(k: int, bound: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Partitions of ``k`` inside the shape ``bound``, in reverse-lexicographic
    order: part i is at most ``bound[i]`` and there are at most ``len(bound)``
    parts."""
    if k == 0:
        return ((),)
    if not bound:
        return ()
    out = []
    for first in range(min(k, bound[0]), 0, -1):
        rest = tuple(min(b, first) for b in bound[1:])
        if first + sum(rest) < k:
            break
        for tail in _partition_tuples(k - first, rest):
            out.append((first,) + tail)
    return tuple(out)


def enumerate_partitions(k: int, max_parts: int, max_first_part: int | None = None) -> list[Partition]:
    """All partitions of ``k`` with at most ``max_parts`` parts, largest part
    bounded by ``max_first_part`` if given, in reverse-lexicographic order.

    The ordering is fixed and documented: series accumulation over this list
    is reproducible bit for bit across runs.
    """
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if max_parts < 1:
        raise DomainError(f"max_parts must be >= 1, got {max_parts}")
    cap = k if max_first_part is None else min(k, max_first_part)
    return [Partition(t) for t in _partition_tuples(k, (cap,) * max_parts)]


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: k'_i = #{j : k_j >= i}."""
    if not p.parts:
        return Partition(())
    cols = [0] * p.parts[0]
    for part in p.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(tuple(cols))


@dataclass(frozen=True)
class HookData:
    """Per-cell upper/lower hook lengths of a partition and their product.

    ``nu`` is the product over all cells of (upper hook) * (lower hook); it is
    the normalization constant relating the two Jack normalizations.  Cell
    order matches :meth:`Partition.cells`.
    """

    partition: Partition
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    nu: Fraction = field(init=False)

    def __post_init__(self):
        nu = Fraction(1)
        for u, l in zip(self.upper, self.lower):
            nu *= u * l
        object.__setattr__(self, "nu", nu)


def hook_product(p: Partition, algebra: DivisionAlgebra) -> HookData:
    """Upper/lower hook data of a nonempty partition.

    For the cell (i, j) with arm a = k_i - j and leg l = k'_j - i the upper
    hook is l + alpha*(a + 1) and the lower hook is l + 1 + alpha*a, so the
    two differ by alpha - 1 at every cell.  The empty partition has no hook
    product; callers treat its Jack polynomial as the constant 1.
    """
    if not p.parts:
        raise DomainError("hook_product is undefined for the empty partition")
    alpha = algebra.alpha
    conj = conjugate(p)
    upper = []
    lower = []
    for (i, j) in p.cells():
        arm = p.part(i) - j
        leg = conj.part(j) - i
        upper.append(leg + alpha * (arm + 1))
        lower.append(leg + 1 + alpha * arm)
    return HookData(p, tuple(upper), tuple(lower))
