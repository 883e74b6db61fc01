"""perfbench: the repo's ruler for host cost per simulated collective operation.

Six named workloads, the end-to-end metrics a user of the simulator pays
(host wall, set-up, memory, simulated time, failures) and a per-layer
host/sim attribution, all measured from outside the program through its
public functions.  See ``README.md`` in this directory; run with
``python -m benchmarks.perfbench run``.
"""
