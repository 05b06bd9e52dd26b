"""Reference implementations kept as differential oracles.

Each module here holds code that ``src/`` has since replaced: the
random draw's O(k²) repeat scan (``draws``), the CSR incidence matrix
and the kernels that folded it (``incidence``), the dict placement
backend with the per-toot strategy and curve loops (``replication``),
and the networkx removal sweeps of Figs. 12-13 (``resilience``).
The tests hold the code that replaced them to exact equality with
them; nothing in ``src/`` imports from here.
"""
