"""Exact norm machinery on groups of prime exponent.

The pieces fit together as a pipeline: build a norm, validate its axioms,
reduce the standard basis greedily against it, extract a certified
independent family from a null sequence, then study the character duality
the norm topology induces. Every number is an exact rational. Import from
the modules (fpmap.norms, fpmap.pipeline, ...): the root re-exports nothing.
"""

__version__ = "0.1.0"
