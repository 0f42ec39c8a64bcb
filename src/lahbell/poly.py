"""Sparse multivariate polynomials with exact integer coefficients.

The variable universe is four indexed families (x1, x2, ..., a1, a2, ...,
b1, ..., y1, ...) plus one lone scalar indeterminate rendered as plain "x".
A Monomial maps variables to positive exponents; a SparsePolynomial maps
monomials to nonzero integer coefficients.  Values are immutable and every
operation returns a canonical result: no zero coefficients, no zero
exponents, variables ordered family-first then index.

Inside a Monomial each variable is an int code, rank << 40 | index, where
rank is the family's place in the order x, a, b, y, scalar.  Indices stay
below 2**40, so ordering codes as ints orders variables family-first then
index, and a code alone says which variable it is: its high bits give the
family and its low bits the index.  A monomial stores a tuple of (code,
exponent) pairs sorted by code, and a product is a single merge of two such
tuples; only the public Monomial constructor validates and sorts.  Codes
are decoded only at the API edge: pairs, variables() and the renderings.
var() hands out one shared polynomial per variable, which is safe because
polynomials are never mutated.

Polynomials hash consistently with equality, including equality with an
int: hash(const(c)) == hash(c).

Text and JSON renderings list terms in descending graded lexicographic
order, so equal polynomials always render identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .exact_core import _check_nonnegative_int, exact_div

__all__ = [
    "Variable",
    "Monomial",
    "SparsePolynomial",
    "PolyAccumulator",
    "SCALAR_X",
    "ZERO",
    "ONE",
    "const",
    "var",
    "indexed_var",
    "term",
    "as_poly",
    "product",
]

_FAMILIES = ("x", "a", "b", "y", "scalar")
_FAMILY_RANK = {family: rank for rank, family in enumerate(_FAMILIES)}
_INDEXED_FAMILIES = _FAMILIES[:-1]
_RANK_SHIFT = 40
_INDEX_LIMIT = 1 << _RANK_SHIFT
_INDEX_MASK = _INDEX_LIMIT - 1


@dataclass(frozen=True)
class Variable:
    """One indeterminate: an indexed family member, or the lone scalar x."""

    family: str
    index: int = 1

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_RANK:
            raise ValueError(f"unknown variable family: {self.family!r}")
        _check_nonnegative_int(index=self.index)
        if self.family == "scalar":
            if self.index != 1:
                raise ValueError("the scalar indeterminate carries no index")
        elif self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")
        elif self.index >= _INDEX_LIMIT:
            raise ValueError(f"variable index must be below 2**{_RANK_SHIFT}, got {self.index}")

    @property
    def code(self) -> int:
        """The int that stands for this variable inside a Monomial."""
        return _FAMILY_RANK[self.family] << _RANK_SHIFT | self.index

    @property
    def name(self) -> str:
        return _name(self.code)

    @classmethod
    def from_name(cls, name: str) -> "Variable":
        """Inverse of .name: 'x' is the scalar, 'a3' is family a index 3."""
        if name == "x":
            return SCALAR_X
        family, digits = name[:1], name[1:]
        if family in _INDEXED_FAMILIES and digits.isdigit() and not digits.startswith("0"):
            return cls(family, int(digits))
        raise ValueError(f"not a variable name: {name!r}")


SCALAR_X = Variable("scalar")


def _name(code: int) -> str:
    """The name of the variable with this code: 'x' for the scalar, else 'a3'."""
    family = _FAMILIES[code >> _RANK_SHIFT]
    return "x" if family == "scalar" else f"{family}{code & _INDEX_MASK}"


def _variable(code: int) -> Variable:
    return Variable(_FAMILIES[code >> _RANK_SHIFT], code & _INDEX_MASK)


def _merge(p: tuple, q: tuple) -> tuple:
    """Product of two code-sorted pair tuples: one merge, adding exponents."""
    if not p:
        return q
    if not q:
        return p
    if p[-1][0] < q[0][0]:
        return p + q
    out = []
    i = j = 0
    cp, cq = p[0][0], q[0][0]
    while True:
        if cp < cq:
            out.append(p[i])
            i += 1
            if i == len(p):
                return (*out, *q[j:])
            cp = p[i][0]
        elif cq < cp:
            out.append(q[j])
            j += 1
            if j == len(q):
                return (*out, *p[i:])
            cq = q[j][0]
        else:
            out.append((cp, p[i][1] + q[j][1]))
            i += 1
            j += 1
            if i == len(p):
                return (*out, *q[j:])
            if j == len(q):
                return (*out, *p[i:])
            cp, cq = p[i][0], q[j][0]


class Monomial:
    """A finite product of variable powers; the empty product is the unit."""

    __slots__ = ("_pairs", "_hash")

    def __init__(
        self,
        exponents: Union[Mapping[Variable, int], Iterable[tuple[Variable, int]]] = (),
    ) -> None:
        items = dict(exponents)
        for v, e in items.items():
            if not isinstance(v, Variable):
                raise TypeError(f"monomial keys must be Variable, got {type(v).__name__}")
            _check_nonnegative_int(exponent=e)
        self._pairs: tuple[tuple[int, int], ...] = tuple(
            sorted((v.code, e) for v, e in items.items() if e)
        )
        self._hash = hash(self._pairs)

    @classmethod
    def _raw(cls, pairs: tuple[tuple[int, int], ...]) -> "Monomial":
        """Wrap code-sorted pairs with positive exponents, unchecked."""
        obj = object.__new__(cls)
        obj._pairs = pairs
        obj._hash = hash(pairs)
        return obj

    @property
    def pairs(self) -> tuple[tuple[Variable, int], ...]:
        return tuple((_variable(c), e) for c, e in self._pairs)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self._pairs)

    @property
    def is_unit(self) -> bool:
        return not self._pairs

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other._pairs:
            return self
        if not self._pairs:
            return other
        return Monomial._raw(_merge(self._pairs, other._pairs))

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        if k == 0:
            return _UNIT
        return Monomial._raw(tuple((c, e * k) for c, e in self._pairs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """Ascending sort by this key lists monomials in descending graded lex."""
        return (-self.degree, tuple((c, -e) for c, e in self._pairs))

    def __str__(self) -> str:
        if not self._pairs:
            return "1"
        return "*".join(
            _name(c) if e == 1 else f"{_name(c)}^{e}" for c, e in self._pairs
        )

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


_UNIT = Monomial()


class SparsePolynomial:
    """Immutable finite sum of integer-weighted monomials."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[Monomial, int], Iterable[tuple[Monomial, int]]] = (),
    ) -> None:
        data: dict[Monomial, int] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in pairs:
            if not isinstance(mono, Monomial):
                raise TypeError("polynomial keys must be Monomial")
            _check_coefficient(coeff)
            if coeff:
                total = data.get(mono, 0) + coeff
                if total:
                    data[mono] = total
                elif mono in data:
                    del data[mono]
        self._terms = data

    @classmethod
    def _raw(cls, clean: dict[Monomial, int]) -> "SparsePolynomial":
        obj = object.__new__(cls)
        obj._terms = clean
        return obj

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical (descending graded lexicographic) order."""
        for mono in sorted(self._terms, key=Monomial.sort_key):
            yield mono, self._terms[mono]

    def variables(self) -> list[Variable]:
        seen = set()
        for mono in self._terms:
            seen.update(c for c, _ in mono._pairs)
        return [_variable(c) for c in sorted(seen)]

    def as_int(self) -> int:
        """The value of a constant polynomial; error if any variable remains."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and _UNIT in self._terms:
            return self._terms[_UNIT]
        raise ValueError(f"polynomial is not constant: {self.to_text()}")

    def __add__(self, other: Union["SparsePolynomial", int]) -> "SparsePolynomial":
        other = as_poly(other)
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = data.get(mono, 0) + coeff
            if total:
                data[mono] = total
            elif mono in data:
                del data[mono]
        return SparsePolynomial._raw(data)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Union["SparsePolynomial", int]) -> "SparsePolynomial":
        return self + (-as_poly(other))

    def __rsub__(self, other: int) -> "SparsePolynomial":
        return as_poly(other) + (-self)

    def __mul__(self, other: Union["SparsePolynomial", int]) -> "SparsePolynomial":
        if isinstance(other, int):
            _check_coefficient(other)
            if other == 0:
                return ZERO
            return SparsePolynomial._raw({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if len(self._terms) == 1 and len(other._terms) == 1:
            ((m1, c1),) = self._terms.items()
            ((m2, c2),) = other._terms.items()
            return SparsePolynomial._raw({m1 * m2: c1 * c2})
        data: dict[Monomial, int] = {}
        right = [(m._pairs, c) for m, c in other._terms.items()]
        for m1, c1 in self._terms.items():
            p1 = m1._pairs
            for p2, c2 in right:
                mono = Monomial._raw(_merge(p1, p2))
                total = data.get(mono, 0) + c1 * c2
                if total:
                    data[mono] = total
                elif mono in data:
                    del data[mono]
        return SparsePolynomial._raw(data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePolynomial":
        if k < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        if k == 0:
            return ONE
        if k == 1:
            return self
        if len(self._terms) == 1:
            ((mono, coeff),) = self._terms.items()
            return SparsePolynomial._raw({mono**k: coeff**k})
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def divide_exact(self, divisor: int) -> "SparsePolynomial":
        """Divide every coefficient by divisor, requiring exactness."""
        return SparsePolynomial._raw(
            {m: exact_div(c, divisor) for m, c in self._terms.items()}
        )

    def substitute_all(
        self, mapping: Mapping[Variable, Union["SparsePolynomial", int]]
    ) -> "SparsePolynomial":
        """Replace every mapped variable by its polynomial value, in one pass."""
        values = {v.code: as_poly(p) for v, p in mapping.items()}
        acc = PolyAccumulator()
        for mono, coeff in self._terms.items():
            residual = []
            piece = ONE
            for c, e in mono._pairs:
                if c in values:
                    piece = piece * values[c] ** e
                else:
                    residual.append((c, e))
            if residual:
                piece = piece * SparsePolynomial._raw({Monomial._raw(tuple(residual)): 1})
            acc.add(piece, coeff)
        return acc.build()

    def substitute(
        self, v: Variable, value: Union["SparsePolynomial", int]
    ) -> "SparsePolynomial":
        """Replace one variable; variables not present are a no-op."""
        return self.substitute_all({v: value})

    def evaluate(self, assignment: Mapping[Variable, int]) -> int:
        """Evaluate at integer values; every variable present must be covered."""
        values = {}
        for v in self.variables():
            if v not in assignment:
                raise ValueError(f"no value provided for variable {v.name}")
            values[v.code] = assignment[v]
        total = 0
        for mono, coeff in self._terms.items():
            product = coeff
            for c, e in mono._pairs:
                product *= values[c] ** e
            total += product
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparsePolynomial):
            return self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            return self._terms == const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to an int means constant, so hash as that int does.
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and _UNIT in terms:
            return hash(terms[_UNIT])
        return hash(frozenset(terms.items()))

    def to_text(self) -> str:
        """Canonical human-readable form, '0' for the zero polynomial."""
        if not self._terms:
            return "0"
        out: list[str] = []
        for mono, coeff in self.terms():
            mag = abs(coeff)
            if mono.is_unit:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if not out:
                out.append(f"-{body}" if coeff < 0 else body)
            else:
                out.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(out)

    def to_json_obj(self) -> dict:
        """JSON-ready form: {"terms": [{"coeff": "...", "monomial": {...}}, ...]}."""
        return {
            "terms": [
                {
                    "coeff": str(coeff),
                    "monomial": {_name(c): e for c, e in mono._pairs},
                }
                for mono, coeff in self.terms()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "SparsePolynomial":
        terms = []
        for entry in obj["terms"]:
            mono = Monomial(
                {Variable.from_name(name): e for name, e in entry["monomial"].items()}
            )
            terms.append((mono, int(entry["coeff"])))
        return cls(terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.to_text()!r})"


class PolyAccumulator:
    """Mutable builder that sums scaled polynomial contributions."""

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[Monomial, int] = {}

    def add(self, poly: SparsePolynomial, scale: int = 1) -> None:
        if not scale:
            return
        data = self._data
        for mono, coeff in poly._terms.items():
            total = data.get(mono, 0) + coeff * scale
            if total:
                data[mono] = total
            elif mono in data:
                del data[mono]

    def build(self) -> SparsePolynomial:
        built = SparsePolynomial._raw(self._data)
        self._data = {}
        return built


def _check_coefficient(value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"polynomial coefficients must be int, got {type(value).__name__}")


def const(value: int) -> SparsePolynomial:
    """The constant polynomial with the given integer value."""
    _check_coefficient(value)
    if value == 0:
        return SparsePolynomial._raw({})
    return SparsePolynomial._raw({_UNIT: value})


# code -> the shared polynomial of that one variable, built on first use.
_VAR_POLYS: dict[int, SparsePolynomial] = {}


def var(v: Union[Variable, str]) -> SparsePolynomial:
    """The polynomial consisting of a single variable."""
    if isinstance(v, str):
        v = Variable.from_name(v)
    elif not isinstance(v, Variable):
        raise TypeError(f"not a variable: {type(v).__name__}")
    code = v.code
    poly = _VAR_POLYS.get(code)
    if poly is None:
        poly = _VAR_POLYS[code] = SparsePolynomial._raw({Monomial({v: 1}): 1})
    return poly


def indexed_var(family: str, index: int) -> SparsePolynomial:
    """var(Variable(family, index)), without building the Variable again."""
    if family in _FAMILY_RANK and type(index) is int and 0 < index < _INDEX_LIMIT:
        poly = _VAR_POLYS.get(_FAMILY_RANK[family] << _RANK_SHIFT | index)
        if poly is not None:
            return poly
    return var(Variable(family, index))


def term(coeff: int, **exponents: int) -> SparsePolynomial:
    """One term from keyword exponents, e.g. term(3, x1=1, x2=1) = 3*x1*x2."""
    mono = Monomial({Variable.from_name(name): e for name, e in exponents.items()})
    return SparsePolynomial([(mono, coeff)])


def as_poly(value: Union[SparsePolynomial, int]) -> SparsePolynomial:
    """Coerce an int to a constant polynomial; pass polynomials through."""
    if isinstance(value, SparsePolynomial):
        return value
    if isinstance(value, int):
        return const(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def product(factors: Iterable[SparsePolynomial]) -> SparsePolynomial:
    """The product of the factors, left to right; ONE when there are none.

    A run of single-term factors is merged code tuple by code tuple, with no
    polynomial built in between.  From the first factor with more or fewer
    terms on, the factors are multiplied as polynomials, so every partial
    product with more than one term is the same as in a left-to-right chain
    of `*`.
    """
    pairs: tuple = ()
    coeff = 1
    factors = iter(factors)
    for f in factors:
        terms = f._terms
        if len(terms) != 1:
            result = SparsePolynomial._raw({Monomial._raw(pairs): coeff}) * f
            for f in factors:
                result = result * f
            return result
        for mono, c in terms.items():
            pairs = _merge(pairs, mono._pairs)
            coeff *= c
    return SparsePolynomial._raw({Monomial._raw(pairs): coeff})


ZERO = const(0)
ONE = const(1)
