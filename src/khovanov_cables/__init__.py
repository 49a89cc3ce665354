"""Khovanov-type link homology with cabling and band-move tooling.

Subpackage map:

- chain_algebra: mod-p linear algebra, sparse bigraded complexes,
  Gaussian simplification, homology ranks of a fully reduced copy,
  filtration levels
- braids, diagrams, planar: braid words, planar link diagrams, embedding data
- frobenius, cube: the deformed Frobenius algebra and the naive state-sum
  complex (small-diagram oracle)
- scanning: the divide-and-conquer engine used at production sizes, and
  homology_table, the one way from a diagram to its homology table
- lee: canonical deformed cycles and the s-invariant
- cobordism: band attachments, induced maps, skein triangles
- induction: satellite families and the induction harness, whose tables
  hold every audited entry's homology table
"""

__version__ = "0.1.0"
