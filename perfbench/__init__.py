"""CO-MAP simulator benchmark: workloads, span tracing and the runner."""
