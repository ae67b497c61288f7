"""Reference implementations the equivalence suites compare against.

Nothing under ``src/`` imports these: each is the literal, unoptimised
computation a production kernel must reproduce exactly.
"""
