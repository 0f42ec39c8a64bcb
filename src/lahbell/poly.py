"""Sparse multivariate polynomials with exact integer coefficients.

The variable universe is four indexed families (x1, x2, ..., a1, a2, ...,
b1, ..., y1, ...) plus one lone scalar indeterminate rendered as plain "x".
A Monomial maps variables to positive exponents; a SparsePolynomial maps
monomials to nonzero integer coefficients.  Values are immutable and every
operation returns a canonical result: no zero coefficients, no zero
exponents, variables ordered family-first then index.

Each variable is an int code, rank << 40 | index, where rank is the
family's place in the order x, a, b, y, scalar.  Indices stay below 2**40,
so ordering codes as ints orders variables family-first then index, and a
code alone says which variable it is: its high bits give the family and its
low bits the index.  A monomial is a tuple of (code, exponent) pairs sorted
by code, the unit monomial the empty tuple, and a product is a single merge
of two such tuples.  Polynomials and PolyAccumulator key their terms by
these pair tuples, so term lookups hash and compare tuples of ints and no
Monomial object is built inside the arithmetic.  Monomial is the public
view of a key: terms() hands them out and the constructor takes them, and
only the public Monomial constructor validates and sorts.  Codes are
decoded only at the API edge: pairs, variables() and the renderings.
var() hands out one shared polynomial per variable, which is safe because
polynomials are never mutated.

Polynomials hash consistently with equality, including equality with an
int: hash(const(c)) == hash(c).

Text and JSON renderings list terms in descending graded lexicographic
order, so equal polynomials always render identically.  Each rule has one
home here: _order_key is the canonical order, for Monomial.sort_key and
for the sort of a rendering; to_text is the text form, Monomial.__str__
included; and _json_terms writes the JSON terms from fixed templates, for
the command line and, read back, for to_json_obj.  A rendering reads the
text and the sort key of each (code, exponent) pair from a _FirstUse table
built for it, so each name is decoded once per render, not once per term.
_FirstUse, a dict that fills each key on its first use, is the package's
one such table: the witness sums in bell keep their part sides in it too.

substitute_all first analyses its mapping (_analyse): an image that is an
int times the variable's own copy, or zero, is a rescale, and any other
image is multiplied out.  A _PreparedMap is that analysis, kept with a
_FirstUse table of each (code, exponent) pair's scale power, so a map
applied to many polynomials is analysed once and each term is rescaled by
one math.prod.  The verifier prepares its weight maps this way; any other
mapping is analysed by the call it is passed to.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from .exact_core import _Record, _check_int, _check_nonnegative_int, exact_div

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
]

_FAMILIES = ("x", "a", "b", "y", "scalar")
_FAMILY_RANK = {family: rank for rank, family in enumerate(_FAMILIES)}
_INDEXED_FAMILIES = _FAMILIES[:-1]
_RANK_SHIFT = 40
_INDEX_LIMIT = 1 << _RANK_SHIFT
_INDEX_MASK = _INDEX_LIMIT - 1
_exponent = itemgetter(1)


class Variable(_Record, fields=("family", "index")):
    """One indeterminate: an indexed family member, or the lone scalar x.

    code, the int that stands for the variable in a monomial's pairs, is
    worked out once at construction.  It is a slot, not a field, so
    equality, hashing and the repr see family and index alone.
    """

    __slots__ = ("family", "index", "code")

    def __init__(self, family: str, index: int = 1) -> None:
        if family not in _FAMILY_RANK:
            raise ValueError(f"unknown variable family: {family!r}")
        _check_nonnegative_int(index=index)
        if family == "scalar":
            if index != 1:
                raise ValueError("the scalar indeterminate carries no index")
        elif index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        elif index >= _INDEX_LIMIT:
            raise ValueError(f"variable index must be below 2**{_RANK_SHIFT}, got {index}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "code", _FAMILY_RANK[family] << _RANK_SHIFT | index)

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


def _power(pair: tuple[int, int]) -> str:
    """The text of one (code, exponent) pair: 'x1', or 'x1^2' above the first power."""
    code, e = pair
    return _name(code) if e == 1 else f"{_name(code)}^{e}"


def _json_entry(pair: tuple[int, int]) -> str:
    return f'        "{_name(pair[0])}": {pair[1]}'


def _descending(pair: tuple[int, int]) -> tuple[int, int]:
    return pair[0], -pair[1]


def _order_key(flip, term: tuple) -> tuple:
    """The canonical-order key of a term (pairs, coefficient): ascending sort
    by it lists terms in descending graded lex of their monomials.  It is the
    negated degree, then each pair's (code, -exponent), which flip gives."""
    pairs = term[0]
    return (-sum(map(_exponent, pairs)), *map(flip, pairs))


class _FirstUse(dict):
    """key -> form(key), worked out on the key's first use and kept.

    A rendering builds one over (code, exponent) pairs, where the same few
    pairs recur in thousands of terms: each is decoded once, and every later
    lookup is a plain dict hit.  The witness sums keep one over whole parts
    next to each slot table (bell._tables).
    """

    __slots__ = ("_form",)

    def __init__(self, form) -> None:
        super().__init__()
        self._form = form

    def __missing__(self, key):
        value = self[key] = self._form(key)
        return value


class Monomial:
    """A finite product of variable powers; the empty product is the unit."""

    __slots__ = ("_pairs",)

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

    @classmethod
    def _raw(cls, pairs: tuple[tuple[int, int], ...]) -> "Monomial":
        """Wrap code-sorted pairs with positive exponents, unchecked."""
        obj = object.__new__(cls)
        obj._pairs = pairs
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
        _check_nonnegative_int(exponent=k)
        if k == 0:
            return _UNIT
        return Monomial._raw(tuple((c, e * k) for c, e in self._pairs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __reduce__(self) -> tuple:
        # a slotted class needs this, or __getstate__, to pickle at protocols 0 and 1
        return self._raw, (self._pairs,)

    def sort_key(self) -> tuple:
        """Ascending sort by this key lists monomials in descending graded lex."""
        # a monomial sorts and renders as its term of coefficient 1
        return _order_key(_descending, (self._pairs, 1))

    def __str__(self) -> str:
        return SparsePolynomial._raw({self._pairs: 1}).to_text()

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
        data: dict[tuple, int] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in pairs:
            if not isinstance(mono, Monomial):
                raise TypeError("polynomial keys must be Monomial")
            _check_coefficient(coeff)
            if coeff:
                key = mono._pairs
                total = data.get(key, 0) + coeff
                if total:
                    data[key] = total
                elif key in data:
                    del data[key]
        self._terms = data

    @classmethod
    def _raw(cls, clean: dict[tuple, int]) -> "SparsePolynomial":
        """Wrap a dict of code-sorted pair tuples to nonzero ints, unchecked."""
        obj = object.__new__(cls)
        obj._terms = clean
        return obj

    def __reduce__(self) -> tuple:
        return self._raw, (self._terms,)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _ordered(self) -> list[tuple[tuple, int]]:
        """(pairs, coefficient) in canonical (descending graded lex) order.

        Each pair's part of the key is read from a table built for this sort.
        """
        key = partial(_order_key, _FirstUse(_descending).__getitem__)
        return sorted(self._terms.items(), key=key)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical (descending graded lexicographic) order."""
        for pairs, coeff in self._ordered():
            yield Monomial._raw(pairs), coeff

    def variables(self) -> list[Variable]:
        seen = set()
        for pairs in self._terms:
            seen.update(c for c, _ in pairs)
        return [_variable(c) for c in sorted(seen)]

    def as_int(self) -> int:
        """The value of a constant polynomial; error if any variable remains."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        raise ValueError(f"polynomial is not constant: {self.to_text()}")

    def __add__(self, other: Union["SparsePolynomial", int]) -> "SparsePolynomial":
        acc = PolyAccumulator()
        acc._data = dict(self._terms)
        acc.add(as_poly(other))
        return acc.build()

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
            ((p1, c1),) = self._terms.items()
            ((p2, c2),) = other._terms.items()
            return SparsePolynomial._raw({_merge(p1, p2): c1 * c2})
        acc = PolyAccumulator()
        acc._add_product(self, other, 1)
        return acc.build()

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePolynomial":
        _check_nonnegative_int(exponent=k)
        if k == 0:
            return ONE
        if k == 1:
            return self
        if len(self._terms) == 1:
            ((pairs, coeff),) = self._terms.items()
            return SparsePolynomial._raw({tuple((c, e * k) for c, e in pairs): coeff**k})
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def divide_exact(self, divisor: int) -> "SparsePolynomial":
        """Divide every coefficient by divisor, requiring exactness.  divisor
        is a nonzero int, not a bool, even when self is the zero polynomial."""
        _check_int("divisor", divisor)
        if not divisor:
            raise ZeroDivisionError("divisor must be nonzero")
        return SparsePolynomial._raw(
            {m: exact_div(c, divisor) for m, c in self._terms.items()}
        )

    def substitute_all(
        self, mapping: Mapping[Variable, Union["SparsePolynomial", int]]
    ) -> "SparsePolynomial":
        """Replace every mapped variable by its polynomial value, in one pass.

        An image c*v of a variable v's own copy, as in x_i -> i!*x_i, is a
        rescale: each term takes c^e under an unchanged key.  A zero image
        is a rescale by 0, which drops the terms it meets.  Every other
        image is multiplied out term by term.  A _PreparedMap is this
        analysis of a mapping's images, worked out once when it was made;
        any other mapping is analysed afresh by this call.
        """
        if not isinstance(mapping, _PreparedMap):
            mapping = _PreparedMap(mapping)
        terms = self._terms
        if mapping.scales:
            power = mapping.powers.__getitem__
            terms = {}
            for pairs, coeff in self._terms.items():
                coeff = math.prod(map(power, pairs), start=coeff)
                if coeff:
                    terms[pairs] = coeff
        images = mapping.images
        if not images:
            return SparsePolynomial._raw(terms)
        acc = PolyAccumulator()
        for pairs, coeff in terms.items():
            residual = []
            piece = ONE
            for c, e in pairs:
                image = images.get(c)
                if image is None:
                    residual.append((c, e))
                else:
                    piece = piece * image**e
            if residual:
                piece = piece * SparsePolynomial._raw({tuple(residual): 1})
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
            value = assignment[v]
            _check_int(f"value of {v.name}", value)
            values[v.code] = value
        total = 0
        for pairs, coeff in self._terms.items():
            product = coeff
            for c, e in pairs:
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
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(frozenset(terms.items()))

    def to_text(self) -> str:
        """Canonical human-readable form, '0' for the zero polynomial."""
        if not self._terms:
            return "0"
        names = _FirstUse(_power).__getitem__
        out: list[str] = []
        for pairs, coeff in self._ordered():
            out.append(" - " if coeff < 0 else " + ")
            mag = abs(coeff)
            if not pairs:
                out.append(str(mag))
            elif mag == 1:
                out.append("*".join(map(names, pairs)))
            else:
                out.append(f"{mag}*" + "*".join(map(names, pairs)))
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def _json_terms(self) -> str:
        """The "terms" array of the JSON form as json.dumps(indent=2) writes it
        one level deep, filled into fixed templates.  Names are ASCII letters
        and digits and coefficients digits after an optional "-", so nothing
        in them needs escaping."""
        ordered = self._ordered()
        if not ordered:
            return "[]"
        entries = _FirstUse(_json_entry).__getitem__
        out = []
        for pairs, coeff in ordered:
            monomial = "{\n" + ",\n".join(map(entries, pairs)) + "\n      }" if pairs else "{}"
            out.append(
                '    {\n      "coeff": "' + str(coeff)
                + '",\n      "monomial": ' + monomial + "\n    }"
            )
        return "[\n" + ",\n".join(out) + "\n  ]"

    def to_json_obj(self) -> dict:
        """JSON-ready form: {"terms": [{"coeff": "...", "monomial": {...}}, ...]}."""
        import json  # here, not at the top: a CLI run that prints no JSON never loads it

        return {"terms": json.loads(self._json_terms())}

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


def _analyse(
    mapping: Mapping[Variable, Union[SparsePolynomial, int]]
) -> tuple[dict[int, int], dict[int, SparsePolynomial]]:
    """(scales, images) of a substitution map, each keyed by variable code:
    scales holds c for an image c*v of v's own copy, and 0 for a zero image;
    images holds every other image as a polynomial."""
    scales: dict[int, int] = {}
    images: dict[int, SparsePolynomial] = {}
    for v, value in mapping.items():
        if not isinstance(v, Variable):
            raise TypeError(f"substitution keys must be Variable, got {type(v).__name__}")
        image = as_poly(value)
        own = ((v.code, 1),)
        if not image:
            scales[v.code] = 0
        elif len(image) == 1 and own in image._terms:
            scales[v.code] = image._terms[own]
        else:
            images[v.code] = image
    return scales, images


class _PreparedMap:
    """A substitution map analysed once, to apply to many polynomials.

    It holds the map's analysis, the scales and images of _analyse, and
    powers, a _FirstUse table (code, exponent) -> scale**exponent that is 1
    for a code with no scale, so substitute_all rescales a term by one
    math.prod over its pairs.  The map is read once, when this is made, so
    later writes to it are not seen.
    """

    __slots__ = ("scales", "images", "powers")

    def __init__(self, mapping: Mapping[Variable, Union[SparsePolynomial, int]]) -> None:
        scales, images = _analyse(mapping)
        self.scales, self.images = scales, images
        self.powers = _FirstUse(lambda pair: scales.get(pair[0], 1) ** pair[1])


class PolyAccumulator:
    """Mutable builder that sums scaled polynomial contributions.

    Like a polynomial it keys its terms by code-sorted (code, exponent) pair
    tuples, not by Monomial, and build() hands its dict to the polynomial.
    """

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: dict[tuple, int] = {}

    def add(self, poly: SparsePolynomial, scale: int = 1) -> None:
        _check_coefficient(scale)
        if not scale:
            return
        data = self._data
        for key, coeff in poly._terms.items():
            total = data.get(key, 0) + coeff * scale
            if total:
                data[key] = total
            elif key in data:
                del data[key]

    def _add_product(self, p: SparsePolynomial, q: SparsePolynomial, scale: int) -> None:
        """Add scale * p * q term by term, building no product polynomial."""
        data = self._data
        right = list(q._terms.items())
        for p1, c1 in p._terms.items():
            c1 *= scale
            for p2, c2 in right:
                key = _merge(p1, p2)
                total = data.get(key, 0) + c1 * c2
                if total:
                    data[key] = total
                elif key in data:
                    del data[key]

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
    return SparsePolynomial._raw({(): value})


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
        poly = _VAR_POLYS[code] = SparsePolynomial._raw({((code, 1),): 1})
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


ZERO = const(0)
ONE = const(1)
