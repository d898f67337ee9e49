# Mirrors .github/workflows/ci.yml so contributors can reproduce gate
# failures offline: `make ci` runs exactly what a PR must pass.

CARGO ?= cargo
BENCH_OUT ?= bench-results
RECALL_FLOOR ?= 0.90

.PHONY: ci fmt clippy build check-harness test test-release examples doc bench-smoke bench-counting bench-baselines bench-telemetry bench-serve bench-reads bench-faults bench-failover chaos clean-bench

ci: fmt clippy build check-harness test test-release examples doc bench-smoke chaos

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

build:
	$(CARGO) build --release

# Type-checks the benchmark harness (perfbench/harness, a workspace of its
# own) against the workspace's crates, as CI does. Its Cargo.lock is
# stale, so the check rewrites it (and `--locked` would fail); the lock
# is put back byte for byte, whatever the check's outcome.
check-harness:
	@lock=$$(mktemp) && cp perfbench/harness/Cargo.lock "$$lock" || exit 1; \
	$(CARGO) check --offline --manifest-path perfbench/harness/Cargo.toml; \
	status=$$?; cp "$$lock" perfbench/harness/Cargo.lock; rm -f "$$lock"; \
	exit $$status

test:
	$(CARGO) test -q --no-fail-fast

# The neighbour-heap, online and apps crates again, optimized, with the
# view oracle: the heap slab's unsafe code and its concurrent tests also
# run as release code does; the repair walk and the wave landing run
# without their debug tripwires, so the repair-score property's bit
# check, the thread-count property and the golden digests guard the
# parallel wave preparation as it runs in the daemon; and the
# copy-on-write overlay and the captured views run as the daemon runs
# them.
test-release:
	$(CARGO) test --release -q -p kiff-graph -p kiff-core -p kiff-baselines -p kiff-dataset -p kiff-online -p kiff-apps
	$(CARGO) test --release -q --test patched_views

examples:
	$(CARGO) build --examples

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

# The CI bench-regression gate: streaming + hot-loop experiments on a
# small synthetic dataset, failing when recall-vs-rebuild drops below
# $(RECALL_FLOOR) or any other experiment gate fails. Each experiment
# writes <id>.txt and <id>.json into $(BENCH_OUT)/.
bench-smoke:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		online sharded counting baselines telemetry serve reads faults failover \
		--scale 0.1 \
		--threads 4 --seed 42 --recall-floor $(RECALL_FLOOR) --out $(BENCH_OUT)

# Counting/scoring hot-loop throughput only (counting.{txt,json}):
# dense RCS construction vs the reference pipeline, and prepared vs
# pairwise refinement scoring.
bench-counting:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		counting --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# Baseline-suite scoring throughput only (baselines.{txt,json}):
# prepared vs pairwise sims/sec for NN-Descent, HyRec, LSH and
# exact_knn, with graph-identity gates per algorithm and metric.
bench-baselines:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		baselines --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# Telemetry overhead only (telemetry.{txt,json}): instrumented vs
# disabled-registry replay throughput (gated within 3%), plus the
# per-shard repair p99 and sims/update readouts from the registry.
bench-telemetry:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		telemetry --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# Serving layer only (serve.{txt,json}): TCP query throughput under
# concurrent update load against a durable daemon, and crash recovery
# (snapshot + WAL tail) timed against a full rebuild (gated >= 5x).
bench-serve:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		serve --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# Lock-free read path only (reads.{txt,json}): query p99 and
# throughput with 8 readers under a streaming writer vs write-idle,
# gated on the contended/idle ratios and on serve.read_wait_ns p99
# (reads must never wait on the writer's mutex).
bench-reads:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		reads --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# Fault tolerance only (faults.{txt,json}): the retrying client while
# every 100th WAL fsync and every 200th socket check fail (every armed
# point must fire and the client must retry; success rate >= 0.999 and
# bounded p99; all gated), plus degraded-mode recovery time and the
# exactly-once bit-exactness check.
bench-faults:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		faults --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# Replication only (failover.{txt,json}): primary/replica WAL shipping
# (replica read p99 <= 2x primary, steady-state lag <= 1 batch, both
# gated), a forced failover with client-observed unavailability <= 2s,
# and the exactly-once bit-exactness check across the kill.
bench-failover:
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		failover --scale 0.1 --threads 4 --seed 42 --out $(BENCH_OUT)

# The chaos suite, as CI's chaos job runs it: proptest fault schedules
# and replication failovers against live daemons under ambient
# replication failpoints at elevated probability (fixed seeds, so a
# failing run replays), then the gated failover bench (replica read p99,
# steady-state lag, unavailability across a primary kill, exactly-once).
chaos:
	KIFF_FAILPOINTS="repl.stream=prob:0.05@1101,repl.ack=prob:0.05@1102,repl.heartbeat=prob:0.05@1103" \
		$(CARGO) test --test serve_faults --test serve_replica --test serve_reads
	$(CARGO) run --release -p kiff-bench --bin experiments -- \
		failover --scale 0.1 --threads 4 --seed 42 --out chaos-results

clean-bench:
	rm -rf $(BENCH_OUT)
