"""End-to-end benchmark of the PDSL reproduction (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a fresh, single-threaded process and prints its metrics
as one JSON object on the last line of standard output.
"""
