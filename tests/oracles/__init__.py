"""Reference implementations and checks the test suites compare against.

Nothing under ``src/`` imports these: each is the literal, unoptimised
computation a production kernel must reproduce exactly, or a predicate
only tests need.
"""
