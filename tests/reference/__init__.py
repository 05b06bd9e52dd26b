"""Reference implementations kept as differential oracles.

Each module here holds an earlier, simpler implementation of a kernel
that ``src/`` has since replaced with a faster one.  The tests hold the
fast kernel to exact equality with its reference; nothing in ``src/``
imports from here.
"""
