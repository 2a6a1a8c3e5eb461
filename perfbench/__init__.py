"""The repository benchmark: end-to-end and per-layer metrics of the simulator.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` explains
the workloads, the metrics and how the layers are traced.
"""
