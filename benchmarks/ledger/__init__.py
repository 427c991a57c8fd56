"""The ledger benchmark: six named workloads with host-speed-corrected
end-to-end metrics, isolated per-layer probes and a driver-side trace.
See README.md in this directory; the entry point is ``run.py``."""
