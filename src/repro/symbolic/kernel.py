"""Interned-monomial symbolic kernel: the fast core of the symbolic layer.

This module is the symbolic counterpart of :mod:`repro.engine` — PRs 1–3 made
the numeric side ride batched/cached kernels, and this kernel does the same
for symbolic network-function generation.  Three ideas, layered:

**Interned monomials.**  A :class:`SymbolInterner` maps symbol names to dense
integer ids (assigned in lexicographic name order, so decoded monomials come
out in the sorted order :class:`~repro.symbolic.terms.Term` requires).
Monomials are *packed integers* — 8 bits of multiplicity per symbol id — so a
term product is a single C bigint addition (multiplicities add), equal
monomials are equal ints, and combining like terms hashes one machine-sized
key instead of a string tuple.  Decoding back to name tuples happens once per
distinct final monomial, through a cache.

**Minor-memoized determinants.**  :class:`DeterminantEngine` expands
determinants recursively along the structurally sparsest column (the pivoting
rule of a flat cofactor expansion), but memoizes
``expand(active_rows, active_cols)`` per *structural minor* and combines like
terms per minor.  The cofactor tree of a
circuit matrix revisits the same minors constantly, and the Cramer numerator
differs from the denominator in a single column — so nearly every numerator
minor is a cache hit against the denominator expansion.  The ``max_terms``
budget is charged on *distinct* work (terms retained across memoized minors),
not on the flat expansion's term count, and the overflow error reports both.

**Vectorized term valuation.**  :class:`TermValuation` groups terms by degree
into dense terms×factors incidences of factor logs folded column by column —
one vector pass per degree produces every term's design-point ``log10``
magnitude and sign.  The fold is deliberately a manual left-to-right column
loop, NOT ``np.add.reduceat``/``np.sum`` (those use pairwise summation): only
the scalar accumulation order reproduces :meth:`Term.value` bit for bit,
which the parity tests against the scalar selection depend on.
:func:`select_significant_terms`, the SDG ``achieved_error`` accounting and
:meth:`SymbolicExpression.coefficient_value` all run on it.

The public results (term multisets, coefficient values) match a flat cofactor
expansion with per-term scalar valuation; the test suite keeps that expansion
as its oracle.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SymbolicError
from ..xfloat import XFloat
from .terms import SymbolicExpression, Term

__all__ = [
    "DEFAULT_MAX_TERMS",
    "SymbolInterner",
    "DeterminantEngine",
    "EngineStats",
    "TermValuation",
    "sum_term_values",
]

#: Default cap on generated determinant terms (re-exported by
#: :mod:`repro.symbolic.determinant` — one tunable, one source).
DEFAULT_MAX_TERMS = 500_000

#: Bits of multiplicity per symbol id in a packed monomial.  A symbol's
#: multiplicity in a determinant term is bounded by the matrix dimension (one
#: factor per row), so 8 bits cover every expansion that could conceivably
#: finish.
_MULTIPLICITY_BITS = 8
_MULTIPLICITY_LIMIT = (1 << _MULTIPLICITY_BITS) - 1

#: Monomials decode in chunks of this many symbol digits (see
#: :meth:`SymbolInterner.decode`).
_CHUNK_SYMBOLS = 16
_CHUNK_BITS = _MULTIPLICITY_BITS * _CHUNK_SYMBOLS
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


class SymbolInterner:
    """Bidirectional symbol-name ↔ integer-id table with packed monomials.

    Ids are assigned in sorted name order at construction, so a packed
    monomial decodes into a sorted name tuple without re-sorting.  Names
    interned later (rare: symbols that appear in entries but not in the
    initial set) break that ordering, and decoding falls back to an explicit
    sort.

    A monomial — a multiset of symbol ids — is packed into one integer with
    :data:`_MULTIPLICITY_BITS` bits of multiplicity per id.  Multiplying two
    monomials is then a single integer addition, and the packed value is its
    own hash-consed identity.
    """

    __slots__ = ("_names", "_ids", "_decoded", "_chunks", "_ordered")

    def __init__(self, names: Iterable[str] = ()):
        self._names: List[str] = sorted(set(names))
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        self._decoded: Dict[int, Tuple[str, ...]] = {0: ()}
        #: Per-chunk decode caches, indexed by chunk position.
        self._chunks: List[Dict[int, Tuple[str, ...]]] = []
        self._ordered = True

    def __len__(self):
        return len(self._names)

    @property
    def names(self) -> Tuple[str, ...]:
        """All interned names in id order."""
        return tuple(self._names)

    def id_of(self, name: str) -> int:
        """Id of ``name``, interning it (unordered) when unseen."""
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._names.append(name)
            self._ids[name] = ident
            if ident and name < self._names[ident - 1]:
                self._ordered = False
        return ident

    def encode_names(self, names: Sequence[str]) -> int:
        """Packed monomial of a symbol-name sequence (with repetition)."""
        mono = 0
        for name in names:
            mono += 1 << (_MULTIPLICITY_BITS * self.id_of(name))
        return mono

    def decode(self, monomial: int) -> Tuple[str, ...]:
        """Sorted name tuple of a packed monomial (the Term symbol invariant).

        Decoding splits the monomial into 16-symbol chunks cached
        independently — nearby determinant terms share most of their factor
        structure, so chunk fragments hit constantly even when whole
        monomials are all distinct.  Decoded tuples are also cached per
        monomial, so expressions that share monomials share symbol tuples.
        """
        decoded = self._decoded.get(monomial)
        if decoded is None:
            caches = self._chunks
            position = 0
            rest = monomial
            decoded = ()
            while rest:
                chunk = rest & _CHUNK_MASK
                rest >>= _CHUNK_BITS
                if position == len(caches):
                    caches.append({})
                cache = caches[position]
                names = cache.get(chunk)
                if names is None:
                    names = cache[chunk] = self._decode_chunk(chunk, position)
                if names:
                    decoded = decoded + names if decoded else names
                position += 1
            if not self._ordered:
                decoded = tuple(sorted(decoded))
            self._decoded[monomial] = decoded
        return decoded

    def _decode_chunk(self, chunk: int, position: int) -> Tuple[str, ...]:
        table = self._names
        offset = position * _CHUNK_SYMBOLS
        decoded: List[str] = []
        for index, count in enumerate(chunk.to_bytes(_CHUNK_SYMBOLS, "little")):
            if count:
                decoded.extend([table[offset + index]] * count)
        return tuple(decoded)

    @property
    def decoded_count(self):
        """Number of distinct monomials decoded so far."""
        return len(self._decoded)


#: Internal term representation: (packed monomial, s power, coefficient).
_UNIT = ((0, 0, 1.0),)


@dataclasses.dataclass
class EngineStats:
    """Work accounting of one :class:`DeterminantEngine`.

    ``distinct_terms`` is what the ``max_terms`` budget charges (terms
    retained across distinct memoized minors); ``expanded_products`` counts
    the term products actually formed, and ``minor_hits`` the expansions the
    memo avoided.  ``phases`` maps a label (``"denominator"``,
    ``"numerator:<node>"``) to its ``(hits, misses)`` snapshot — the
    numerator/denominator sharing shows up as a numerator phase whose hits
    dwarf its misses.
    """

    distinct_terms: int = 0
    expanded_products: int = 0
    minor_hits: int = 0
    minor_misses: int = 0
    phases: Dict[str, Tuple[int, int]] = dataclasses.field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of minor lookups answered by the memo."""
        total = self.minor_hits + self.minor_misses
        return self.minor_hits / total if total else 0.0


class DeterminantEngine:
    """Minor-memoized sparse determinant expansion over interned columns.

    The engine owns a *column registry*: the base matrix columns plus any
    number of replacement (excitation) columns.  Every determinant request —
    the plain determinant, or a Cramer numerator with one column replaced —
    runs against the same memo, so structural minors are shared across the
    cofactor tree and across numerator/denominator expansions.

    Parameters
    ----------
    interner:
        Shared :class:`SymbolInterner` (monomials from different engines can
        be compared only when they share an interner).
    size:
        Matrix dimension.
    max_terms:
        Budget on *distinct* work: the total number of terms retained across
        memoized minors.  Reusing a memoized minor charges nothing.
    """

    def __init__(self, interner: SymbolInterner, size: int,
                 max_terms: int = DEFAULT_MAX_TERMS):
        self.interner = interner
        self.size = size
        self.max_terms = max_terms
        #: column id -> {row: tuple of internal terms}
        self._columns: List[Dict[int, Tuple]] = []
        self._memo: Dict[Tuple, Tuple] = {}
        self.stats = EngineStats()

    # ------------------------------------------------------------------ #
    # column registry
    # ------------------------------------------------------------------ #

    def compile_expression(self, expression) -> Tuple:
        """Compile a :class:`SymbolicExpression` into internal terms."""
        encode = self.interner.encode_names
        compiled = []
        for term in expression.terms:
            if len(term.symbols) * max(self.size, 1) > _MULTIPLICITY_LIMIT:
                # One multiplicity digit per symbol: a term of this degree
                # times one factor per row could overflow a digit.  No
                # completable expansion gets near this (dimension 255+).
                raise SymbolicError(
                    "matrix too large for packed monomials "
                    f"(size {self.size}, entry degree {len(term.symbols)})")
            compiled.append((encode(term.symbols), term.s_power,
                             term.coefficient))
        return tuple(compiled)

    def add_column(self, entries_by_row: Dict[int, object]) -> int:
        """Register a column; values are ``SymbolicExpression`` or compiled
        internal term tuples.  Returns the column id."""
        column: Dict[int, Tuple] = {}
        for row, expression in entries_by_row.items():
            compiled = (expression if isinstance(expression, tuple)
                        else self.compile_expression(expression))
            if compiled:
                column[row] = compiled
        self._columns.append(column)
        return len(self._columns) - 1

    @classmethod
    def from_entries(cls, entries, size, interner=None,
                     max_terms=DEFAULT_MAX_TERMS) -> "DeterminantEngine":
        """Build an engine whose columns ``0..size-1`` mirror an
        ``{(row, col): SymbolicExpression}`` entry map."""
        if interner is None:
            names = {name
                     for expression in entries.values()
                     for term in expression.terms
                     for name in term.symbols}
            interner = SymbolInterner(names)
        engine = cls(interner, size, max_terms)
        by_column: List[Dict[int, object]] = [{} for __ in range(size)]
        for (row, col), expression in entries.items():
            if expression.terms:
                by_column[col][row] = expression
        for column in by_column:
            engine.add_column(column)
        return engine

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #

    def determinant_terms(self, rows: Sequence[int],
                          cols: Sequence[int]) -> Tuple:
        """Internal combined terms of the determinant over ``rows``/``cols``
        (column ids, in matrix-column order)."""
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise SymbolicError("determinant requires as many rows as columns")
        return self._expand(rows, cols)

    def phase(self, label: str):
        """Snapshot hit/miss deltas of the next expansions under ``label``."""
        return _PhaseRecorder(self, label)

    def _budget_error(self, in_flight=0) -> SymbolicError:
        stats = self.stats
        held = (f"{stats.distinct_terms} distinct terms"
                if not in_flight else
                f"{stats.distinct_terms} distinct terms + {in_flight} "
                "in-flight groups")
        return SymbolicError(
            f"symbolic determinant exceeded the term budget ({self.max_terms}): "
            f"{held} across {len(self._memo)} memoized minors "
            f"({stats.expanded_products} expanded term products); "
            "reduce the circuit (SBG) first"
        )

    def _expand(self, rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Tuple:
        memo = self._memo
        key = (rows, cols)
        hit = memo.get(key)
        if hit is not None:
            self.stats.minor_hits += 1
            return hit
        self.stats.minor_misses += 1
        if not rows:
            memo[key] = _UNIT
            return _UNIT

        # Pick the active column with the fewest entries in the active rows
        # (the pivoting rule of the flat cofactor expansion).
        rows_set = set(rows)
        columns = self._columns
        best_position = None
        best_rows: List[int] = []
        for position, col in enumerate(cols):
            rows_here = [row for row in columns[col] if row in rows_set]
            if best_position is None or len(rows_here) < len(best_rows):
                best_position = position
                best_rows = rows_here
                if len(rows_here) <= 1:
                    break
        if best_position is None or not best_rows:
            # Structurally singular: an active column with no active entries.
            memo[key] = ()
            return ()
        best_col = cols[best_position]
        remaining_cols = cols[:best_position] + cols[best_position + 1:]
        column = columns[best_col]

        # Like terms accumulate per total s-power, keyed directly by the
        # packed monomial: multiplying monomials is one integer addition
        # (multiplicities add), and combining is one integer-keyed dict update.
        buckets: Dict[int, Dict[int, float]] = {}
        stats = self.stats
        for row in best_rows:
            row_position = rows.index(row)
            sign = -1.0 if (row_position + best_position) % 2 else 1.0
            remaining_rows = rows[:row_position] + rows[row_position + 1:]
            minor = self._expand(remaining_rows, remaining_cols)
            if not minor:
                continue
            entry = column[row]
            for entry_mono, entry_power, entry_coeff in entry:
                scaled = entry_coeff * sign
                bucket_base = buckets.get(entry_power)
                for minor_mono, minor_power, minor_coeff in minor:
                    if minor_power:
                        power = entry_power + minor_power
                        bucket = buckets.get(power)
                        if bucket is None:
                            bucket = buckets[power] = {}
                    else:
                        bucket = bucket_base
                        if bucket is None:
                            bucket = bucket_base = buckets[entry_power] = {}
                    merged = entry_mono + minor_mono
                    value = bucket.get(merged)
                    if value is None:
                        bucket[merged] = scaled * minor_coeff
                    else:
                        bucket[merged] = value + scaled * minor_coeff
            stats.expanded_products += len(entry) * len(minor)
            in_flight = sum(map(len, buckets.values()))
            if (stats.distinct_terms + in_flight) > self.max_terms:
                # Live groups count against the budget while the minor is
                # open (they are retained memory), even though some may
                # still cancel before the minor is charged for keeps.
                raise self._budget_error(in_flight)

        result = tuple((mono, power, coefficient)
                       for power, bucket in sorted(buckets.items())
                       for mono, coefficient in bucket.items()
                       if coefficient != 0.0)
        stats.distinct_terms += len(result)
        if stats.distinct_terms > self.max_terms:
            raise self._budget_error()
        memo[key] = result
        return result

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #

    def to_expression(self, internal_terms, scale: float = 1.0) -> SymbolicExpression:
        """Convert internal terms to a public :class:`SymbolicExpression`."""
        decode = self.interner.decode
        from_sorted = Term.from_sorted
        return SymbolicExpression([
            from_sorted(decode(mono), power, coefficient * scale)
            for mono, power, coefficient in internal_terms
        ])

    @property
    def memoized_minors(self):
        """Number of distinct structural minors held by the memo."""
        return len(self._memo)


class _PhaseRecorder:
    """Context manager recording hit/miss deltas into ``stats.phases``."""

    def __init__(self, engine: DeterminantEngine, label: str):
        self._engine = engine
        self._label = label

    def __enter__(self):
        stats = self._engine.stats
        self._hits = stats.minor_hits
        self._misses = stats.minor_misses
        return self

    def __exit__(self, exc_type, exc, tb):
        stats = self._engine.stats
        stats.phases[self._label] = (stats.minor_hits - self._hits,
                                     stats.minor_misses - self._misses)
        return False


# ---------------------------------------------------------------------- #
# vectorized term valuation
# ---------------------------------------------------------------------- #


class TermValuation:
    """Bulk design-point valuation of a term list over one symbol table.

    Terms are grouped by degree; each group becomes a dense
    ``terms×(1+degree)`` incidence of factor logs (the leading column is
    ``log10 |coefficient|``, the rest the symbol logs in sorted-symbol order)
    folded column by column — vectorized across terms, but with exactly the
    left-to-right accumulation order of :meth:`Term.value`, so the
    :class:`~repro.xfloat.XFloat` values materialized from the result are
    bit-identical to the scalar path.
    """

    __slots__ = ("terms", "logs", "signs", "_values", "_order", "_total")

    def __init__(self, terms: Sequence[Term], table: Dict[str, object]):
        self.terms = list(terms)
        count = len(self.terms)
        self._values: List[Optional[XFloat]] = [None] * count
        self._order: Optional[List[int]] = None
        self._total: Optional[XFloat] = None
        self.logs = np.empty(count)
        self.signs = np.empty(count)
        if count == 0:
            return

        symbol_logs: Dict[str, float] = {}
        symbol_signs: Dict[str, float] = {}
        total_factors = sum(len(term.symbols) for term in self.terms)
        # Precompute the whole table only when the term list touches a
        # comparable number of factors; a tiny valuation (one coefficient of
        # a small expression) resolves just the symbols it names.
        precomputed = total_factors >= len(table)
        if precomputed:
            for name, symbol in table.items():
                value = symbol.value
                if value == 0.0:
                    symbol_logs[name] = -math.inf
                    symbol_signs[name] = 0.0
                else:
                    symbol_logs[name] = math.log10(abs(value))
                    symbol_signs[name] = 1.0 if value > 0.0 else -1.0

        coefficient_logs: Dict[float, float] = {0.0: -math.inf}
        coefficient_signs: Dict[float, float] = {0.0: 0.0}

        def coefficient_log(coefficient):
            log = coefficient_logs.get(coefficient)
            if log is None:
                log = math.log10(abs(coefficient))
                coefficient_logs[coefficient] = log
                coefficient_signs[coefficient] = (1.0 if coefficient > 0.0
                                                  else -1.0)
            return log

        by_degree: Dict[int, List[int]] = {}
        for index, term in enumerate(self.terms):
            by_degree.setdefault(len(term.symbols), []).append(index)

        terms_list = self.terms
        for degree, indices in by_degree.items():
            group = [terms_list[index] for index in indices]
            coeff_logs = np.asarray([coefficient_log(term.coefficient)
                                     for term in group])
            coeff_signs = np.asarray([coefficient_signs[term.coefficient]
                                      for term in group])
            if degree == 0:
                self.logs[indices] = coeff_logs
                self.signs[indices] = coeff_signs
                continue
            if precomputed:
                try:
                    flat = [symbol_logs[name]
                            for term in group for name in term.symbols]
                    sign_flat = [symbol_signs[name]
                                 for term in group for name in term.symbols]
                except KeyError as exc:
                    raise SymbolicError(
                        f"symbol {exc.args[0]!r} missing from the table") \
                        from exc
            else:
                flat = []
                sign_flat = []
                for term in group:
                    for name in term.symbols:
                        log = symbol_logs.get(name)
                        if log is None:
                            symbol = table.get(name)
                            if symbol is None:
                                raise SymbolicError(
                                    f"symbol {name!r} missing from the table")
                            value = symbol.value
                            if value == 0.0:
                                log = -math.inf
                                symbol_signs[name] = 0.0
                            else:
                                log = math.log10(abs(value))
                                symbol_signs[name] = (1.0 if value > 0.0
                                                      else -1.0)
                            symbol_logs[name] = log
                        flat.append(log)
                        sign_flat.append(symbol_signs[name])
            block = np.asarray(flat).reshape(len(group), degree)
            # Left-to-right column fold: the same accumulation order as the
            # scalar Term.value loop, vectorized across the group.
            accumulated = coeff_logs
            for column in range(degree):
                accumulated = accumulated + block[:, column]
            self.logs[indices] = accumulated
            self.signs[indices] = coeff_signs * np.prod(
                np.asarray(sign_flat).reshape(len(group), degree), axis=1)
        # Zero factors force the whole term to zero, matching Term.value.
        zero = self.signs == 0.0
        if zero.any():
            self.logs = np.where(zero, -math.inf, self.logs)

    def __len__(self):
        return len(self.terms)

    def is_zero(self, index: int) -> bool:
        """True when term ``index`` has design-point value zero."""
        return self.signs[index] == 0.0

    def value(self, index: int) -> XFloat:
        """The term's value as an :class:`XFloat` (bit-equal to Term.value)."""
        cached = self._values[index]
        if cached is None:
            sign = self.signs[index]
            log = float(self.logs[index])
            if sign == 0.0 or not math.isfinite(log):
                cached = XFloat.zero()
            else:
                # Same float operations as XFloat.from_log10, minus the
                # renormalization pass (10**frac is already in [1, 10)).
                exponent = int(math.floor(log))
                mantissa = 10.0 ** (log - exponent)
                if sign < 0:
                    mantissa = -mantissa
                cached = XFloat._raw(mantissa, exponent)
            self._values[index] = cached
        return cached

    def values(self) -> List[XFloat]:
        """All term values, in term order."""
        return [self.value(i) for i in range(len(self.terms))]

    def order(self) -> List[int]:
        """Indices by decreasing design-point magnitude.

        Ties (exactly equal log magnitudes, e.g. symmetric element values)
        break deterministically on ``(s_power, symbols)`` so the selection is
        independent of the term-generation order — a flat and a memoized
        expansion of the same determinant give identical kept-term sets.
        (The scalar selection the tests use as their oracle keys on the
        XFloat mantissa's roundtripped ``log10`` instead of the raw folded
        sum; magnitudes ~1 ulp apart could in principle order differently
        there, but both orderings are deterministic for fixed inputs, so a
        parity check either always agrees or fails loudly, never flakes.)
        """
        if self._order is None:
            logs = self.logs
            terms = self.terms
            order = np.argsort(-logs, kind="stable")
            # Repair exact-magnitude tie runs (rare: symmetric values) with
            # the deterministic (s_power, symbols) key.
            sorted_logs = logs[order]
            ties = np.nonzero(sorted_logs[1:] == sorted_logs[:-1])[0]
            if len(ties):
                order = list(order)
                start = None
                tie_set = set(ties)
                for position in range(len(order)):
                    if position in tie_set:
                        if start is None:
                            start = position
                    elif start is not None:
                        run = order[start:position + 1]
                        run.sort(key=lambda i: (terms[i].s_power,
                                                terms[i].symbols))
                        order[start:position + 1] = run
                        start = None
                self._order = [int(i) for i in order]
            else:
                self._order = order.tolist()
        return self._order

    def total(self) -> XFloat:
        """Sum of every term value, accumulated in term order.

        The accumulation order matches a per-term loop, so totals are
        bit-identical to summing ``Term.value`` results sequentially.
        """
        if self._total is None:
            total = XFloat.zero()
            for index in range(len(self.terms)):
                if self.signs[index] != 0.0:
                    total = total + self.value(index)
            self._total = total
        return self._total


def sum_term_values(terms: Sequence[Term], table: Dict[str, object]) -> XFloat:
    """Design-point sum of a term list (vectorized log pass, exact order)."""
    return TermValuation(terms, table).total()
