"""Training benchmark for magnetdml: workloads, runner and per-layer tracing."""
