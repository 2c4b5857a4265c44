"""Exact Hilbert-Kunz density functions, support invariants and F-thresholds
for graded pairs, cross-validated against a characteristic-p oracle."""
