"""Exact-arithmetic valuation maps on commutative semirings.

A catalogue of concrete instances (naturals, nonnegative rationals,
Boolean and ordinary polynomials, tropical min-plus carriers, integer
ideals, fuzzy rationals, fraction semifields), valuation rules into
totally ordered value domains, finitely generated ideals with exact
membership oracles, discrete valuation structures, and polynomial content
identities, all wired into bounded executable law checks.

The package itself exports nothing: import from its modules, e.g.
``semival.instances.get_instance`` or ``semival.ideals.make_ideal``.
"""
