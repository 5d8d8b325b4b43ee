"""Numerical toolkit for weighted subspace decompositions.

Core objects: weighted subspace families, their synthesis and frame
operators, operator-relative optimal bounds, and checkers that verify
bound-transfer statements against independently computed optima.  The
modules are the Python API; the package root exports nothing.
"""
