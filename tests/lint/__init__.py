"""Structural lints: one table of rules (``rules.RULES``), one harness."""
