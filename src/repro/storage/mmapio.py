"""Empty: the memory-mapped spill backend was removed.

``perfbench`` still imports this module by name (``perfbench/
workloads.py`` and the tracer's ``_HOLDERS``), so it stays importable
until ROADMAP item 1A(n) drops those imports and deletes it.  Nothing
under ``src/`` imports it.
"""
