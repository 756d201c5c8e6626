"""Replication harness: the acceptance protocol, runnable on any seed."""
