"""Brute-force oracles and counting helpers that only the tests use.

The torusclass package ships the three routes; the tests check them
against the g-set engine (``oracles.gsets``), the enumerations in
``oracles.counting``, and the ring operations and maps that no command
uses (``oracles.schur``, ``oracles.cyclic``).  pytest puts ``tests/`` on
``sys.path``, so this package is importable as ``oracles``.
"""
