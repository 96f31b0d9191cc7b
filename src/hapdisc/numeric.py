"""Empty: the skip-set arithmetic lives in ``realizability`` and ``pattern``.

The module is kept only because the benchmark's tracer
(``perfbench/tracing.py``) lists ``numeric`` among the modules it imports.
"""
