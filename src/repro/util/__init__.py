"""Shared utilities: units, text tables, DOT emission, and I/O helpers.

These are deliberately dependency-light: everything in :mod:`repro.util`
may be imported from any other subpackage without creating cycles.
"""
