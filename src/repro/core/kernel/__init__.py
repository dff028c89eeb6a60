"""The incremental compression kernel.

The legacy greedy optimiser (:mod:`repro.core.greedy`) recomputes the merge
gain of **every** candidate inner node by scanning **every** monomial at
**every** coarsening step — O(steps × candidates × |provenance|).  This
package replaces those rescans with an incremental pipeline:

* :mod:`repro.core.kernel.index` — the flattened monomial rows plus a
  CSR-style incidence index (tree node → the rows of monomials its subtree
  touches, built on first use), cached by provenance fingerprint;
* :mod:`repro.core.kernel.greedy` — :class:`IncrementalGreedyKernel`:
  per-candidate merge-gain counters, worked out once per distinct monomial
  and delta-updated in O(affected monomials) per coarsening, with candidate
  selection through a lazy max-heap;
* :mod:`repro.core.kernel.trajectory` — :class:`GreedyTrajectory`: the
  bound-independent coarsening trajectory, lazily extended and shared across
  bound sweeps ("compress once, then sweep").

The kernel is a pure optimisation: it emits the **identical cut sequence**
(and therefore identical compressed provenance) as the legacy greedy at
every step; ``tests/unit/test_kernel.py`` and
``tests/property/test_kernel_gain_parity.py`` enforce this.
"""

from repro.core.kernel.index import MonomialIncidenceIndex
from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.core.kernel.trajectory import GreedyTrajectory

__all__ = [
    "MonomialIncidenceIndex",
    "IncrementalGreedyKernel",
    "GreedyTrajectory",
]
