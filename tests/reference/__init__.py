"""Reference implementations kept as differential oracles.

Each module here holds code that ``src/`` has since replaced: the
random draw's O(k²) repeat scan (``draws``), the CSR incidence matrix
and the kernels that folded it (``incidence``), the dict placement
backend with the per-toot strategy and curve loops (``replication``),
the networkx follower and federation graphs with their CSR conversion,
rankings and Table 2 loop (``graphs``), the networkx removal sweeps of
Figs. 12-13 (``resilience``), and the outage schedule that re-sorted on
every append (``uptime``).
The tests hold the code that replaced them to exact equality with
them; nothing in ``src/`` imports from here.
"""
