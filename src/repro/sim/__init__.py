"""Trace-driven simulation: machine state, engine, timing, results.

Import the submodules directly (``repro.sim.engine``,
``repro.sim.parallel``, ...): the package itself loads nothing, so
reading the result cache never pulls in the replay engine.
"""
