"""Tests of the benchmark's own code (collected by the tier-1 suite)."""
