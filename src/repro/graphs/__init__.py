"""Graph substrate: synthetic generators, dataset stand-ins, orderings.

The paper evaluates on real social networks from KONECT / Network
Repository; this subpackage provides deterministic synthetic stand-ins
(see DESIGN.md §3) plus the numpy degree/score ordering and
orientation every algorithm shares.
"""
