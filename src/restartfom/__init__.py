"""Parallel restart scheme for first-order convex optimization.

The modules are the API; the package itself exports nothing.  ``problems``
holds the seeded test problems with exact growth metadata, ``methods`` the
three restartable first-order methods (projected subgradient, accelerated
gradient, universal fast gradient), ``sync_scheme`` the ladder core and the
lock-step/sequential engine, ``async_scheme`` the discrete-event engine,
``bounds`` the closed-form complexity bounds for both engines, ``traces``
the trace records, file format and invariant checkers, ``harness`` the
experiment configs and grids that check measured runs against the bounds,
``cli`` the ``restartfom`` command, and ``errors`` the typed exceptions.
"""
