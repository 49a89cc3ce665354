"""Khovanov-type link homology of links and cables, with one-crossing skein cones.

Subpackage map:

- chain_algebra: mod-p linear algebra, sparse bigraded complexes,
  Gaussian simplification, homology ranks of a fully reduced copy,
  filtration levels
- braids, diagrams, planar: braid words, planar link diagrams, embedding data
- pdcodes: PD-code reading and writing of link diagrams
- cabling: framed satellites of a braid-word companion as one braid word,
  and the orientation bookkeeping of their cable strands
- frobenius, cube: the deformed Frobenius algebra and the naive state-sum
  complex (small-diagram oracle)
- scanning: the divide-and-conquer engine used at production sizes, and
  homology_table, the one way from a diagram to its homology table
- lee: canonical deformed cycles and the s-invariant
- invariants: classical invariants read off a homology table
- cobordism: one crossing's mapping cone and the audit of its long exact
  sequence
- induction: satellite families and the induction harness, whose tables
  hold every audited entry's homology table
"""

__version__ = "0.1.0"
