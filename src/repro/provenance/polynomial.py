"""Provenance polynomials and keyed collections of them.

A :class:`Polynomial` is a finite sum of monomials with numeric coefficients,
the symbolic representation of a (possibly aggregate) query result described
in Section 2 of the COBRA paper.  A :class:`ProvenanceSet` is the multiset of
polynomials COBRA receives as input — in practice one polynomial per result
group (e.g. one per zip code in the running example), keyed by the group-by
values so the engine can report per-group result changes.
"""

from __future__ import annotations

from numbers import Real
from typing import (
    Dict,
    Iterable,
    Iterator,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import (
    InvalidPolynomialError,
    MissingValuationError,
)
from repro.provenance.monomial import Monomial, VariableLike
from repro.provenance.variables import variable_name

Number = Union[int, float]

#: Coefficients with absolute value below this threshold are dropped when a
#: polynomial is normalised.  Exact zero always collapses; the epsilon guards
#: against float dust produced by long chains of additions.
_ZERO_EPSILON = 1e-12


class Polynomial:
    """An immutable provenance polynomial: a map from monomials to coefficients.

    Construction normalises the representation: terms with (numerically) zero
    coefficients are dropped and duplicate monomials are merged by summing
    their coefficients.

    Examples
    --------
    >>> p = Polynomial({Monomial.of("p1", "m1"): 208.8, Monomial.of("p1", "m3"): 240})
    >>> p.num_monomials()
    2
    >>> sorted(p.variables())
    ['m1', 'm3', 'p1']
    """

    __slots__ = ("_terms", "_hash")

    def __init__(
        self,
        terms: Optional[Mapping[Monomial, Number]] = None,
    ) -> None:
        merged: Dict[Monomial, float] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if not isinstance(monomial, Monomial):
                    raise InvalidPolynomialError(
                        f"polynomial keys must be Monomial, got {type(monomial).__name__}"
                    )
                if not isinstance(coefficient, Real):
                    raise InvalidPolynomialError(
                        f"coefficient of {monomial.to_text()} must be a number, "
                        f"got {coefficient!r}"
                    )
                value = merged.get(monomial, 0.0) + float(coefficient)
                merged[monomial] = value
        self._terms: Dict[Monomial, float] = {
            m: c for m, c in merged.items() if abs(c) > _ZERO_EPSILON
        }
        self._hash: Optional[int] = None

    @classmethod
    def _trusted(cls, terms: Dict[Monomial, float]) -> "Polynomial":
        """Adopt already-normalised ``terms`` without copying or checking them.

        ``terms`` must map distinct :class:`Monomial` keys to ``float``
        coefficients above the zero threshold — what construction leaves.
        """
        polynomial = object.__new__(cls)
        polynomial._terms = terms
        polynomial._hash = None
        return polynomial

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        """The additive identity (no monomials)."""
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        """The multiplicative identity (the unit monomial with coefficient 1)."""
        return cls({Monomial.unit(): 1.0})

    @classmethod
    def constant(cls, value: Number) -> "Polynomial":
        """A constant polynomial."""
        return cls({Monomial.unit(): float(value)})

    @classmethod
    def variable(cls, var: VariableLike, coefficient: Number = 1.0) -> "Polynomial":
        """The polynomial ``coefficient * var``."""
        return cls({Monomial.of(variable_name(var)): float(coefficient)})

    @classmethod
    def from_terms(
        cls, terms: Iterable[Tuple[Number, Sequence[VariableLike]]]
    ) -> "Polynomial":
        """Build a polynomial from ``(coefficient, [variables...])`` terms.

        Repeated variables inside a term raise the exponent, and repeated
        identical terms are merged, e.g.
        ``Polynomial.from_terms([(2, ["x", "x"]), (3, ["y"])])`` is
        ``2*x^2 + 3*y``.
        """
        accumulated: Dict[Monomial, float] = {}
        for coefficient, variables in terms:
            monomial = Monomial.of(*variables)
            accumulated[monomial] = accumulated.get(monomial, 0.0) + float(coefficient)
        return cls(accumulated)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Tuple[Tuple[Monomial, float], ...]:
        """All ``(monomial, coefficient)`` pairs in canonical (sorted) order."""
        # Sorting on the factor tuples is Monomial ordering, compared in C.
        return tuple(sorted(self._terms.items(), key=lambda item: item[0].factors))

    def monomials(self) -> KeysView[Monomial]:
        """The monomials in insertion order (unsorted, unlike :meth:`terms`)."""
        return self._terms.keys()

    def coefficient(self, monomial: Monomial) -> float:
        """Coefficient of ``monomial`` (0.0 if absent)."""
        return self._terms.get(monomial, 0.0)

    def num_monomials(self) -> int:
        """The number of monomials — the paper's measure of provenance size."""
        return len(self._terms)

    def variables(self) -> frozenset:
        """The set of variable names occurring in the polynomial."""
        names = set()
        for monomial in self._terms:
            names.update(monomial.variables())
        return frozenset(names)

    def degree(self) -> int:
        """The maximum total degree over all monomials (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(monomial.degree() for monomial in self._terms)

    def is_zero(self) -> bool:
        """Whether this is the zero polynomial."""
        return not self._terms

    def constant_term(self) -> float:
        """The coefficient of the unit monomial."""
        return self._terms.get(Monomial.unit(), 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[Monomial, float]]:
        return iter(self.terms())

    def __contains__(self, monomial: object) -> bool:
        return monomial in self._terms

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Polynomial | Number") -> "Polynomial":
        if isinstance(other, Real):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            merged[monomial] = merged.get(monomial, 0.0) + coefficient
        return Polynomial(merged)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | Number") -> "Polynomial":
        if isinstance(other, Real):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial | Number") -> "Polynomial":
        if isinstance(other, Real):
            return self.scale(float(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        product: Dict[Monomial, float] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                key = mono_a * mono_b
                product[key] = product.get(key, 0.0) + coeff_a * coeff_b
        return Polynomial(product)

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def scale(self, factor: Number) -> "Polynomial":
        """Multiply every coefficient by ``factor``."""
        return Polynomial(
            {monomial: coefficient * float(factor)
             for monomial, coefficient in self._terms.items()}
        )

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables through ``mapping``, merging coinciding monomials.

        This is the primitive underlying abstraction: when the mapping sends
        several variables to the same meta-variable, previously distinct
        monomials may become identical and their coefficients are summed —
        precisely the compression effect described in the paper.
        """
        return _Renamer(mapping).polynomial(self)

    def substitute(self, assignment: Mapping[str, Number]) -> "Polynomial":
        """Partially evaluate: replace some variables by numeric values.

        Variables not mentioned in ``assignment`` remain symbolic.  The result
        is again a polynomial; substituting every variable yields a constant
        polynomial whose value equals :meth:`evaluate`.
        """
        merged: Dict[Monomial, float] = {}
        for monomial, coefficient in self._terms.items():
            numeric = coefficient
            remaining: Dict[str, int] = {}
            for name, exp in monomial:
                if name in assignment:
                    numeric *= float(assignment[name]) ** exp
                else:
                    remaining[name] = exp
            key = Monomial(remaining)
            merged[key] = merged.get(key, 0.0) + numeric
        return Polynomial(merged)

    def evaluate(self, valuation: Mapping[str, Number]) -> float:
        """Fully evaluate the polynomial under ``valuation``.

        Raises
        ------
        MissingValuationError
            If some variable of the polynomial has no value in ``valuation``.
        """
        missing = [name for name in self.variables() if name not in valuation]
        if missing:
            raise MissingValuationError(missing)
        total = 0.0
        for monomial, coefficient in self._terms.items():
            term = coefficient
            for name, exp in monomial:
                term *= float(valuation[name]) ** exp
            total += term
        return total

    def restrict_variables(self, variables: Iterable[str]) -> "Polynomial":
        """Keep only monomials whose variables are all within ``variables``."""
        keep = set(variables)
        return Polynomial(
            {
                monomial: coefficient
                for monomial, coefficient in self._terms.items()
                if set(monomial.variables()) <= keep
            }
        )

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def almost_equal(self, other: "Polynomial", tolerance: float = 1e-9) -> bool:
        """Structural equality up to a per-coefficient absolute ``tolerance``."""
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tolerance
            for k in keys
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(
                (monomial, round(coefficient, 9))
                for monomial, coefficient in self._terms.items()
            )))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self, precision: int = 6) -> str:
        """Render as text, e.g. ``"208.8*p1*m1 + 240*p1*m3"``."""
        if not self._terms:
            return "0"
        parts: List[str] = []
        for monomial, coefficient in self.terms():
            coeff_text = _format_number(coefficient, precision)
            if monomial.is_unit():
                parts.append(coeff_text)
            elif coefficient == 1.0:
                parts.append(monomial.to_text())
            else:
                parts.append(f"{coeff_text}*{monomial.to_text()}")
        return " + ".join(parts)


def _format_number(value: float, precision: int) -> str:
    """Format a coefficient without a trailing ``.0`` for integral values."""
    if float(value).is_integer():
        return str(int(value))
    return f"{round(value, precision):g}"


class _Renamer:
    """Renames polynomials through one mapping, once per distinct monomial.

    Every distinct renamed monomial gets an index into ``images``, and
    ``memo`` sends the factors of each monomial seen to its image's index.
    Polynomials sharing a renamer thus pay for each distinct monomial once;
    per term they only look up its factors and sum a coefficient under an
    int key.  A monomial in which no mapped variable occurs is its own
    image.  Each mapping target is validated the first time a variable
    mapped to it occurs: as with :meth:`Monomial.rename`, the target of a
    variable that never occurs is not checked.  Every polynomial keeps its
    term order, so coefficients are summed in the same order as a
    term-by-term rename.
    """

    __slots__ = ("mapping", "memo", "images", "cancelled", "_image_ids", "_targets")

    def __init__(self, mapping: Mapping[str, VariableLike]) -> None:
        self.mapping = mapping
        self.memo: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self.images: List[Monomial] = []
        #: Whether some merged coefficient fell to zero (and was dropped).
        self.cancelled = False
        self._image_ids: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self._targets: Dict[VariableLike, str] = {}

    def _image(self, monomial: Monomial) -> int:
        """Index of the renamed ``monomial`` (computed once, then memoised)."""
        mapping = self.mapping
        factors = monomial.factors
        renamed = monomial
        if any(name in mapping for name, _ in factors):
            merged: Dict[str, int] = {}
            for name, exponent in factors:
                if name in mapping:
                    name = self._target(mapping[name])
                merged[name] = merged.get(name, 0) + exponent
            renamed = Monomial._trusted(tuple(sorted(merged.items())))
        index = self._image_ids.get(renamed.factors)
        if index is None:
            index = self._image_ids[renamed.factors] = len(self.images)
            self.images.append(renamed)
        self.memo[factors] = index
        return index

    def _target(self, target: VariableLike) -> str:
        name = self._targets.get(target)
        if name is None:
            name = self._targets[target] = variable_name(target)
        return name

    def polynomial(self, polynomial: Polynomial) -> Polynomial:
        """The renamed ``polynomial``, coinciding monomials merged."""
        memo = self.memo
        merged: Dict[int, float] = {}
        for monomial, coefficient in polynomial._terms.items():
            index = memo.get(monomial.factors)
            if index is None:
                index = self._image(monomial)
            merged[index] = merged.get(index, 0.0) + coefficient
        images = self.images
        terms = {
            images[index]: c
            for index, c in merged.items()
            if abs(c) > _ZERO_EPSILON
        }
        if len(terms) < len(merged):
            self.cancelled = True
        return Polynomial._trusted(terms)


class ProvenanceSet:
    """A keyed multiset of provenance polynomials.

    This is COBRA's input: "a multiset of polynomials, intuitively including
    all polynomials that appear in the provenance-aware result of query
    evaluation".  Each polynomial is keyed by the identifying values of its
    result tuple (e.g. the ``Zip`` group-by key) so the engine can show how
    each result row changes under a hypothetical valuation.
    """

    __slots__ = ("_polynomials", "_variables_cache", "_fingerprint_cache")

    def __init__(
        self,
        polynomials: Optional[Mapping[Tuple, Polynomial]] = None,
    ) -> None:
        self._polynomials: Dict[Tuple, Polynomial] = {}
        self._variables_cache: Optional[frozenset] = None
        self._fingerprint_cache: Optional[str] = None
        if polynomials:
            for key, polynomial in polynomials.items():
                self[key] = polynomial

    # -- mutation (builder-style) -------------------------------------------

    def _invalidate_caches(self) -> None:
        self._variables_cache = None
        self._fingerprint_cache = None

    def __setitem__(self, key, polynomial: Polynomial) -> None:
        if not isinstance(polynomial, Polynomial):
            raise InvalidPolynomialError(
                f"ProvenanceSet values must be Polynomial, got {type(polynomial).__name__}"
            )
        self._polynomials[_normalize_key(key)] = polynomial
        self._invalidate_caches()

    def add(self, key, polynomial: Polynomial) -> None:
        """Add (or sum into) the polynomial registered under ``key``."""
        key = _normalize_key(key)
        if key in self._polynomials:
            self._polynomials[key] = self._polynomials[key] + polynomial
            self._invalidate_caches()
        else:
            self[key] = polynomial

    # -- access --------------------------------------------------------------

    def __getitem__(self, key) -> Polynomial:
        return self._polynomials[_normalize_key(key)]

    def get(self, key, default: Optional[Polynomial] = None) -> Optional[Polynomial]:
        """Return the polynomial under ``key`` or ``default``."""
        return self._polynomials.get(_normalize_key(key), default)

    def __contains__(self, key) -> bool:
        return _normalize_key(key) in self._polynomials

    def __len__(self) -> int:
        return len(self._polynomials)

    def keys(self) -> Tuple[Tuple, ...]:
        """All result keys in insertion order."""
        return tuple(self._polynomials.keys())

    def items(self) -> Iterator[Tuple[Tuple, Polynomial]]:
        """Iterate over ``(key, polynomial)`` pairs."""
        return iter(self._polynomials.items())

    def polynomials(self) -> Tuple[Polynomial, ...]:
        """All polynomials, in key insertion order."""
        return tuple(self._polynomials.values())

    # -- aggregate measures ---------------------------------------------------

    def size(self) -> int:
        """Total number of monomials across all polynomials (provenance size)."""
        return sum(p.num_monomials() for p in self._polynomials.values())

    def variables(self) -> frozenset:
        """Union of variables across all polynomials (cached until mutation).

        Scenario selection and batch compilation both need the full variable
        universe repeatedly; the union is computed once and invalidated by the
        builder-style mutators, so callers can share one variable index
        instead of recomputing the union per use.
        """
        if self._variables_cache is None:
            names = set()
            for polynomial in self._polynomials.values():
                names.update(polynomial.variables())
            self._variables_cache = frozenset(names)
        return self._variables_cache

    def num_variables(self) -> int:
        """Number of distinct variables — the paper's expressiveness measure."""
        return len(self.variables())

    def fingerprint(self) -> str:
        """A content hash of the set, stable across processes (cached).

        Two provenance sets with the same keys and structurally identical
        polynomials (coefficients rounded to 9 decimals, the same tolerance
        :meth:`Polynomial.__hash__` uses) share a fingerprint.  Batch
        evaluation uses it to key compiled-provenance caches.
        """
        if self._fingerprint_cache is None:
            import hashlib

            # Keys are visited in sorted order (so insertion order does not
            # matter) and every field is terminated with a separator byte
            # (so field boundaries cannot be shifted between inputs).
            digest = hashlib.sha256()
            for key in sorted(self._polynomials, key=repr):
                digest.update(repr(key).encode("utf-8"))
                digest.update(b"\x1e")
                for monomial, coefficient in self._polynomials[key].terms():
                    digest.update(monomial.to_text().encode("utf-8"))
                    digest.update(b"\x1f")
                    digest.update(repr(round(coefficient, 9)).encode("utf-8"))
                    digest.update(b"\x1f")
                digest.update(b"\x1d")
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache

    # -- transformations --------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "ProvenanceSet":
        """Rename variables in every polynomial (the abstraction primitive).

        One renaming memo serves every polynomial, so each *distinct*
        monomial is renamed once however many groups repeat it.  Unless some
        merged coefficient cancelled to zero, the result's variables are
        read off those distinct renamed monomials rather than its rows.
        """
        return self._rename(mapping)[0]

    def _rename(self, mapping: Mapping[str, str]) -> Tuple["ProvenanceSet", int]:
        """:meth:`rename`, and how many distinct monomials it renamed."""
        renamer = _Renamer(mapping)
        result = ProvenanceSet()
        for key, polynomial in self._polynomials.items():
            result._polynomials[key] = renamer.polynomial(polynomial)
        if not renamer.cancelled:
            names: set = set()
            for monomial in renamer.images:
                names.update(monomial.variables())
            result._variables_cache = frozenset(names)
        return result, len(renamer.memo)

    def substitute(self, assignment: Mapping[str, Number]) -> "ProvenanceSet":
        """Partially evaluate every polynomial."""
        return ProvenanceSet(
            {key: polynomial.substitute(assignment)
             for key, polynomial in self._polynomials.items()}
        )

    def evaluate(self, valuation: Mapping[str, Number]) -> Dict[Tuple, float]:
        """Evaluate every polynomial, returning key → numeric result."""
        return {
            key: polynomial.evaluate(valuation)
            for key, polynomial in self._polynomials.items()
        }

    def map(self, func) -> "ProvenanceSet":
        """Apply ``func`` to every polynomial and rebuild the set."""
        return ProvenanceSet(
            {key: func(polynomial)
             for key, polynomial in self._polynomials.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceSet):
            return NotImplemented
        return self._polynomials == other._polynomials

    def almost_equal(self, other: "ProvenanceSet", tolerance: float = 1e-9) -> bool:
        """Key-wise :meth:`Polynomial.almost_equal` comparison."""
        if set(self._polynomials) != set(other._polynomials):
            return False
        return all(
            self._polynomials[key].almost_equal(other._polynomials[key], tolerance)
            for key in self._polynomials
        )

    def __repr__(self) -> str:
        return (
            f"ProvenanceSet(groups={len(self)}, size={self.size()}, "
            f"variables={self.num_variables()})"
        )


def _normalize_key(key) -> Tuple:
    """Normalise result keys to tuples so scalar and 1-tuple keys coincide."""
    if isinstance(key, tuple):
        return key
    if isinstance(key, list):
        return tuple(key)
    return (key,)
