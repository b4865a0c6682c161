"""Circuit-keyed analysis session: build once, reuse everywhere.

A chained workload — Bode verification, then sensitivity screening, then SBG
reduction, then interpolation — touches the *same* circuit four times, and
before this module each stage rebuilt its formulation and refactored its
frequency sweep from scratch.  :class:`AnalysisSession` memoizes those
artifacts behind a **content hash** of the circuit (plus the transfer spec /
sweep grid where relevant), so any stage that asks for something an earlier
stage already built gets the cached object back:

* assembled :class:`~repro.mna.builder.MnaSystem` instances and
  admittance-form circuits,
* kept sweep factorizations (:class:`~repro.engine.sweep.SweepFactors`),
  the expensive part of every AC / screening pass,
* full :class:`~repro.interpolation.reference.NumericalReference` results
  and element screenings,
* symbolic artifacts: :class:`~repro.symbolic.matrix.SymbolicNodal`
  matrices, :class:`~repro.symbolic.kernel.DeterminantEngine` instances
  (with their minor memos) and finished
  :class:`~repro.symbolic.generation.SymbolicTransferFunction` results.

Keying by content rather than identity means a circuit rebuilt from the same
netlist, or a ``circuit.copy()``, still hits the cache — and any mutation
(element removed, value scaled) changes the hash and misses, so stale answers
are structurally impossible.  The session holds strong references to
everything it caches; use :meth:`AnalysisSession.invalidate` to drop a
circuit's artifacts (or everything) when memory matters.

All imports of the concrete builders happen lazily inside methods — the
session sits *above* :mod:`repro.mna` / :mod:`repro.nodal` /
:mod:`repro.interpolation` in the layer diagram, while this package's
formulation/sweep modules sit below them.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

__all__ = ["AnalysisSession"]

#: Kept sweep factorizations are the one cache kind whose entries are large
#: (per-point LU factors for a whole grid), so only the most recent grids are
#: retained — bounded both by count and by estimated retained bytes; all
#: other kinds are unbounded until :meth:`AnalysisSession.invalidate`.
_MAX_SWEEP_ENTRIES = 16

#: Estimated retained-factor budget across all cached sweeps (~256 MB).  A
#: sweep is costed by the memory its kept chunks report: about
#: ``num_points · n² · 16`` bytes on the dense path, and the stored entries
#: on the sparse path — pricing those at n² would evict every sweep of a
#: post-layout-scale network even though ordered sparse factors stay near
#: ``nnz + fill`` per point.
_MAX_SWEEP_BYTES = 256 * 1024 * 1024

#: Compiled transfer models carry dense (groups × free-symbols) incidence
#: programs — small next to sweep factors but not free (the µA741 macro's
#: is a few hundred KB) — so the compiled cache is LRU-bounded by count
#: like the kept-sweep cache.
_MAX_COMPILED_ENTRIES = 16


def _sweep_cost_bytes(sweep) -> int:
    """Memory held by one kept sweep's factor chunks."""
    return sum(chunk.nbytes for __, chunk in sweep.factors)


class AnalysisSession:
    """Memoized formulations, sweep factorizations and references.

    Attributes
    ----------
    hits, misses:
        Aggregate cache statistics across every artifact kind.
    """

    def __init__(self):
        self._mna: Dict[str, object] = {}
        self._sweeps: Dict[Tuple, object] = {}
        self._references: Dict[Tuple, object] = {}
        self._admittance: Dict[Tuple, object] = {}
        self._screenings: Dict[Tuple, object] = {}
        self._symbolic_nodal: Dict[Tuple, object] = {}
        self._symbolic_engines: Dict[Tuple, object] = {}
        self._symbolic_transfers: Dict[Tuple, object] = {}
        self._compiled: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self._compiled_stats = {"compiles": 0, "hits": 0, "evictions": 0}

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #

    @staticmethod
    def fingerprint(circuit) -> str:
        """Content hash of a circuit: its ordered elements and node registry.

        Element order matters (it fixes the unknown ordering of both
        formulations), and so does the declared node list — a circuit can
        carry dangling nodes its elements no longer touch (e.g. after
        ``with_element_removed``), and those change the system dimension.
        The circuit's display name does not participate, so copies and
        re-parsed netlists with identical content share a fingerprint.
        """
        digest = hashlib.sha256()
        for element in circuit:
            digest.update(repr(element).encode("utf-8"))
            digest.update(b"\n")
        digest.update(b"\x00nodes\x00")
        for node in circuit.nodes:
            digest.update(node.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    @staticmethod
    def _spec_key(spec):
        """Hashable key for a TransferSpec / output node / node pair."""
        inputs = getattr(spec, "inputs", None)
        if inputs is not None:
            output = getattr(spec, "output")
            if isinstance(output, (tuple, list)):
                output = tuple(str(node) for node in output)
            else:
                output = str(output)
            return ("spec", tuple(str(name) for name in inputs), output)
        if isinstance(spec, (tuple, list)):
            return ("output", tuple(str(node) for node in spec))
        return ("output", str(spec))

    @staticmethod
    def _grid_key(s_values) -> bytes:
        return np.asarray(list(s_values), dtype=complex).tobytes()

    def _get(self, cache, key, build):
        if key in cache:
            self.hits += 1
            return cache[key]
        self.misses += 1
        cache[key] = value = build()
        return value

    # ------------------------------------------------------------------ #
    # cached artifacts
    # ------------------------------------------------------------------ #

    def mna_system(self, circuit, fingerprint=None):
        """The circuit's assembled :class:`~repro.mna.builder.MnaSystem`.

        ``fingerprint`` lets callers that captured the hash earlier (e.g. at
        snapshot time) skip recomputing it.
        """
        from ..mna.builder import build_mna_system

        if fingerprint is None:
            fingerprint = self.fingerprint(circuit)
        return self._get(self._mna, fingerprint,
                         lambda: build_mna_system(circuit))

    def factored_sweep(self, circuit, s_values, method="auto", *,
                       system=None, fingerprint=None):
        """Kept LU factors of the circuit's MNA system over a sweep grid.

        This is :func:`repro.mna.solve.ac_factor_sweep` behind a
        ``(circuit, grid, method)`` key — the dominant cost of AC analysis
        and rank-1 screening, paid once per distinct grid.  Only the
        ``_MAX_SWEEP_ENTRIES`` most recently built grids are retained (these
        entries hold per-point factors, the session's only large artifacts).

        Callers holding a *snapshot* — a system assembled before possible
        in-place mutations of ``circuit`` (as :class:`~repro.analysis.ac.ACAnalysis`
        does) — pass ``system`` plus the ``fingerprint`` captured when the
        snapshot was taken, so the factors always match the snapshot rather
        than the circuit's current content.
        """
        from ..mna.solve import ac_factor_sweep

        if fingerprint is None:
            fingerprint = self.fingerprint(circuit)
        if system is None:
            system = self.mna_system(circuit, fingerprint=fingerprint)
        # Materialize once: the grid is consumed twice (key + construction),
        # so a generator argument must not be drained by the key computation.
        s = np.asarray(list(s_values), dtype=complex)
        key = (fingerprint, s.tobytes(), method)
        sweep = self._get(self._sweeps, key,
                          lambda: ac_factor_sweep(system, s, method=method))
        # LRU bookkeeping: refresh the entry's position, drop the oldest
        # grids beyond the count and estimated-memory retention bounds
        # (never the entry just requested).
        self._sweeps.pop(key)
        self._sweeps[key] = sweep
        while len(self._sweeps) > 1 and (
                len(self._sweeps) > _MAX_SWEEP_ENTRIES
                or sum(map(_sweep_cost_bytes, self._sweeps.values()))
                > _MAX_SWEEP_BYTES):
            del self._sweeps[next(iter(self._sweeps))]
        return sweep

    def admittance_circuit(self, circuit, merge_parallel=False):
        """The circuit transformed to admittance form (gyrator-C inductors)."""
        from ..netlist.transform import to_admittance_form

        key = (self.fingerprint(circuit), merge_parallel)
        return self._get(self._admittance, key,
                         lambda: to_admittance_form(
                             circuit, merge_parallel=merge_parallel))

    def reference(self, circuit, spec, options=None, method="auto",
                  admittance_transform=True, merge_parallel=False):
        """The circuit's :class:`~repro.interpolation.reference.NumericalReference`.

        Equivalent to :func:`repro.interpolation.reference.generate_reference`
        (including the admittance transform, itself cached), memoized on
        circuit content, spec, options and backend — SBG error control and
        any later interpolation stage share one generation run.
        """
        from ..interpolation.reference import generate_reference

        key = (self.fingerprint(circuit), self._spec_key(spec),
               repr(options), method, admittance_transform, merge_parallel)

        def build():
            if admittance_transform:
                target = self.admittance_circuit(
                    circuit, merge_parallel=merge_parallel)
            else:
                target = circuit
            return generate_reference(target, spec, options=options,
                                      method=method,
                                      admittance_transform=False)

        return self._get(self._references, key, build)

    def screening(self, circuit, output, frequencies, elements=None,
                  perturbation=0.01, method="rank1"):
        """The circuit's element :class:`~repro.analysis.sensitivity.ScreeningResult`.

        Screening is a pure function of circuit content, output, grid and
        parameters, so the whole result is memoized — an SBG pass that ranks
        the same elements a dashboard already screened reuses the answer
        outright, and the underlying baseline factorization is shared with
        Bode passes through :meth:`factored_sweep` either way.
        ``screen_elements(..., session=...)`` delegates here, so every
        consumer gets the memoized result.
        """
        from ..analysis.sensitivity import _screen

        frequencies = np.asarray(list(frequencies), dtype=float)
        elements_key = (None if elements is None
                        else tuple(str(name) for name in elements))
        fingerprint = self.fingerprint(circuit)
        key = (fingerprint, self._spec_key(output),
               self._grid_key(frequencies), elements_key,
               float(perturbation), method)
        return self._get(
            self._screenings, key,
            lambda: _screen(circuit, output, frequencies, elements,
                            perturbation, method, session=self,
                            fingerprint=fingerprint))

    # ------------------------------------------------------------------ #
    # symbolic artifacts
    # ------------------------------------------------------------------ #

    def symbolic_nodal(self, circuit, spec, admittance_transform=True):
        """The circuit's :class:`~repro.symbolic.matrix.SymbolicNodal`.

        Built over the cached admittance-form circuit (shared with
        :meth:`reference`), keyed by the *original* circuit's fingerprint.
        """
        from ..symbolic.matrix import build_symbolic_nodal

        key = (self.fingerprint(circuit), self._spec_key(spec),
               admittance_transform)

        def build():
            target = (self.admittance_circuit(circuit)
                      if admittance_transform else circuit)
            return build_symbolic_nodal(target, spec)

        return self._get(self._symbolic_nodal, key, build)

    def symbolic_engine(self, circuit, spec, max_terms=None,
                        admittance_transform=True):
        """The circuit's :class:`~repro.symbolic.kernel.DeterminantEngine`
        (plus its excitation-column id) over the cached symbolic nodal matrix.

        The engine carries the minor memo, so a determinant request and a
        later transfer-function request — or repeated requests from SDG/SAG
        stages — expand each structural minor exactly once per session.
        """
        from ..symbolic.determinant import DEFAULT_MAX_TERMS

        if max_terms is None:
            max_terms = DEFAULT_MAX_TERMS
        nodal = self.symbolic_nodal(circuit, spec,
                                    admittance_transform=admittance_transform)
        key = (self.fingerprint(circuit), self._spec_key(spec),
               admittance_transform, int(max_terms))
        return self._get(self._symbolic_engines, key,
                         lambda: nodal.determinant_engine(max_terms=max_terms))

    def symbolic_determinant(self, circuit, spec, max_terms=None,
                             admittance_transform=True):
        """The symbolic nodal determinant ``D(s, x)`` of the circuit.

        Expanded on the cached engine — a later
        :meth:`symbolic_transfer` call reuses every minor this expansion
        memoized.
        """
        from ..symbolic.determinant import DEFAULT_MAX_TERMS

        if max_terms is None:
            max_terms = DEFAULT_MAX_TERMS
        # Lives in the transfer cache; the trailing marker keeps it apart
        # from the full transfer's key (fingerprint stays key[0] so
        # invalidate() matches it).
        key = (self.fingerprint(circuit), self._spec_key(spec),
               admittance_transform, int(max_terms), "determinant-only")

        def build():
            engine, __ = self.symbolic_engine(
                circuit, spec, max_terms=max_terms,
                admittance_transform=admittance_transform)
            indices = tuple(range(self.symbolic_nodal(
                circuit, spec,
                admittance_transform=admittance_transform).dimension))
            return engine.to_expression(
                engine.determinant_terms(indices, indices))

        return self._get(self._symbolic_transfers, key, build)

    def symbolic_transfer(self, circuit, spec, max_terms=None,
                          admittance_transform=True):
        """The circuit's full
        :class:`~repro.symbolic.generation.SymbolicTransferFunction`, cached
        by content (``symbolic_network_function(..., session=...)`` lands
        here)."""
        from ..symbolic.determinant import DEFAULT_MAX_TERMS
        from ..symbolic.generation import _transfer_from_nodal

        if max_terms is None:
            max_terms = DEFAULT_MAX_TERMS
        key = (self.fingerprint(circuit), self._spec_key(spec),
               admittance_transform, int(max_terms))

        def build():
            nodal = self.symbolic_nodal(
                circuit, spec, admittance_transform=admittance_transform)
            engine, excitation = self.symbolic_engine(
                circuit, spec, max_terms=max_terms,
                admittance_transform=admittance_transform)
            return _transfer_from_nodal(nodal, spec, max_terms=max_terms,
                                        engine=engine, excitation=excitation)

        return self._get(self._symbolic_transfers, key, build)

    def compiled_transfer(self, circuit, spec, free_symbols=None,
                          max_terms=None, admittance_transform=True):
        """The circuit's :class:`~repro.symbolic.compile.CompiledTransferModel`.

        Compile-once semantics per (circuit fingerprint, spec, free-symbol
        set): Bode passes, SDG epsilon sweeps and Monte Carlo runs on one
        circuit all serve from the same lowered coefficient-tensor program.
        The cache is LRU-bounded like the kept-sweep cache, and the
        per-session ``compiles`` / ``hits`` / ``evictions`` counters are
        reported by :meth:`stats` under ``"compiled"``.
        """
        from ..symbolic.determinant import DEFAULT_MAX_TERMS

        if max_terms is None:
            max_terms = DEFAULT_MAX_TERMS
        free_key = None if free_symbols is None else \
            tuple(str(name) for name in free_symbols)
        key = (self.fingerprint(circuit), self._spec_key(spec),
               admittance_transform, int(max_terms), free_key)
        model = self._compiled.get(key)
        if model is None:
            self.misses += 1
            self._compiled_stats["compiles"] += 1
            transfer = self.symbolic_transfer(
                circuit, spec, max_terms=max_terms,
                admittance_transform=admittance_transform)
            model = transfer.compile(free_symbols=free_key)
            self._compiled[key] = model
        else:
            self.hits += 1
            self._compiled_stats["hits"] += 1
            # Refresh recency so hot programs survive the LRU bound.
            self._compiled.pop(key)
            self._compiled[key] = model
        while len(self._compiled) > _MAX_COMPILED_ENTRIES:
            del self._compiled[next(iter(self._compiled))]
            self._compiled_stats["evictions"] += 1
        return model

    # ------------------------------------------------------------------ #
    # session-backed analyses
    # ------------------------------------------------------------------ #

    def frequency_response(self, circuit, output, frequencies,
                           method="auto") -> np.ndarray:
        """Complex output voltage over a frequency grid (hertz).

        Exactly :meth:`repro.analysis.ac.ACAnalysis.frequency_response`
        wired to this session (one code path, not a reimplementation): the
        batched solve runs against the cached sweep factors, so repeating a
        Bode pass (or running one after a screening pass that factored the
        same grid) costs O(n²) per point instead of O(n³).
        """
        from ..analysis.ac import ACAnalysis

        return ACAnalysis(circuit, output, method=method,
                          session=self).frequency_response(frequencies)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def entry_count(self):
        """Number of cached artifacts across every kind."""
        return sum(len(cache) for cache in self._caches())

    def _caches(self):
        return (self._mna, self._sweeps, self._references, self._admittance,
                self._screenings, self._symbolic_nodal,
                self._symbolic_engines, self._symbolic_transfers,
                self._compiled)

    def invalidate(self, circuit=None):
        """Drop cached artifacts — of one circuit, or everything.

        Returns the number of entries removed.
        """
        if circuit is None:
            removed = self.entry_count
            for cache in self._caches():
                cache.clear()
            return removed
        fingerprint = self.fingerprint(circuit)
        removed = 0
        for cache in self._caches():
            stale = [key for key in cache
                     if key == fingerprint
                     or (isinstance(key, tuple) and key
                         and key[0] == fingerprint)]
            for key in stale:
                del cache[key]
            removed += len(stale)
        return removed

    def stats(self) -> Dict[str, int]:
        """Cache statistics.

        ``"compiled"`` carries this session's compiled-transfer cache
        counters: ``compiles`` (builds on miss), ``hits`` (served from
        cache) and ``evictions`` (LRU drops; :meth:`invalidate` removals
        are not evictions).  A run's resilience outcome lives in its own
        :class:`~repro.engine.resilience.SweepReport`.
        """
        return {"hits": self.hits, "misses": self.misses,
                "entries": self.entry_count,
                "compiled": dict(self._compiled_stats)}

    def __repr__(self):
        return (f"AnalysisSession(entries={self.entry_count}, "
                f"hits={self.hits}, misses={self.misses})")
