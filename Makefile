# Developer entry points.  `make check` is the gate every change must pass:
# the tier-1 test suite plus a <30 s perf smoke that (a) compares the default
# bitset relation backend against the reference pairs backend on a small
# workload and (b) fails if the bitset delay median regresses beyond 2x the
# committed benchmarks/results/BENCH_delay_constant.json trajectory.

PYTHON ?= python
PYPATH := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# When pytest-timeout is installed (CI always installs it), cap every test:
# a protocol wait that ignores its deadline must fail loudly, not hang the
# run.  Without the plugin, tests/conftest.py still enforces the explicit
# @pytest.mark.timeout markers via SIGALRM.
PYTEST_TIMEOUT_FLAGS := $(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=300 --timeout-method=thread")

.PHONY: check test test-engine-strict lint net-smoke bench-smoke perfbench-smoke bench

test:
	$(PYPATH) $(PYTHON) -m pytest -x -q $(PYTEST_TIMEOUT_FLAGS)

# The engine test module runs a second time with DeprecationWarning promoted
# to an error: new code cannot silently call the deprecated shims
# (TreeEnumerator / WordEnumerator / DocumentStore).
test-engine-strict:
	$(PYPATH) $(PYTHON) -m pytest tests/test_engine.py -q -W error::DeprecationWarning $(PYTEST_TIMEOUT_FLAGS)

# Lint (requires ruff; CI installs it — locally skipped when absent, but a
# real ruff failure propagates).
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Boot a real EngineServer on a loopback port, drive it with RemoteEngine
# over TCP, and assert byte-identical answers against an in-process oracle.
net-smoke:
	$(PYPATH) $(PYTHON) examples/network_serving_demo.py

bench-smoke:
	$(PYPATH) $(PYTHON) benchmarks/run_all.py --quick --compare --smoke-out benchmarks/results/smoke

# The repository benchmark's own tests (perfbench/, about 15 s): every
# workload at tiny sizes, untraced and traced, with its correctness checks.
# The traced run wraps facade internals by name (ShardPool.stream_next_chunk,
# ShardPool.collect, EngineServer._run_engine, Engine.add_tree, ...), so a
# refactor that renames one fails here instead of in the next benchmark run.
perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q $(PYTEST_TIMEOUT_FLAGS)

# Full benchmark harness: rewrites benchmarks/results/BENCH_*.json so the
# committed trajectories can be compared across PRs.
bench:
	$(PYPATH) $(PYTHON) benchmarks/run_all.py

check: test test-engine-strict net-smoke bench-smoke perfbench-smoke
	@echo "check OK: tier-1 tests + strict engine tests + net smoke + perf smoke + perfbench smoke passed"
