"""perfbench: this repository's end-to-end + per-layer benchmark.

One instrument that every later performance or simplicity claim is
measured with.  Six named workloads, six bounded end-to-end metrics,
and a traced pass that attributes each operation's wall-clock to the
repo's modules by timing calls into their *public* callables from the
outside — ``src/`` is not edited and carries no spans of its own.

Entry points (run from the repository root)::

    python3 -m perfbench measure --workload W --seed N --seconds S --trace 0|1
    python3 -m perfbench run [--seed 11] [--rounds 3] [--workload W] [--out DIR]
    python3 -m perfbench compare A/results.json B/results.json

``measure`` is the protocol ``BENCHMARK.json`` names: one workload,
one fresh process (supervised until every process it started has
ended, :mod:`perfbench.supervise`), one JSON line.  ``run`` drives ``measure``
round-robin in subprocesses and writes ``results.json`` and
``trace.json``; ``compare`` judges two ``results.json`` files.
``perfbench/README.md`` documents every metric and workload name.
"""
