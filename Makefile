# Targets mirror .github/workflows/ci.yml so local runs and CI are identical.

GO ?= go

# Micro-benchmarks tracked in the BENCH_<date>.json perf trajectory.
MICRO_BENCH := ^Benchmark(HybridFileSizeSample|NamespaceGeneration|TreePath|FilePlacement|ConstraintResolution|ImageGeneration|Materialize|Content|FindWorkload|SearchIndexing|LayoutScore|StreamingPlanBuild|RetainedPlanBuild|PartitionedPlanBuild|TarSink|SquashfsSink)
BENCH_TIME ?= 1x
BENCH_DATE := $(shell date +%Y%m%d)

.PHONY: build test race bench bench-smoke bench-json lint fmt ci dist-check dist-fault-check mem-check serve-check fleet-fault-check image-sink-check e2e-check fuzz-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment suite (internal/bench) regenerates every paper figure and
# needs more than the default 10m under the race detector on small machines.
race:
	$(GO) test -race -timeout 30m ./...

# Full benchmark suite (paper tables/figures + micro + parallel engine).
bench:
	$(GO) test -run '^$$' -bench . ./...

# One iteration of every benchmark, the CI smoke job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run the micro-benchmarks and write a machine-readable BENCH_<date>.json
# (name, ns/op, MB/s, allocs/op + custom metrics) so the perf trajectory is
# tracked from PR 2 onward; CI uploads the file as an artifact. Override
# BENCH_TIME (e.g. BENCH_TIME=2s) for stable local numbers.
bench-json:
	$(GO) test -run '^$$' -bench '$(MICRO_BENCH)' -benchtime $(BENCH_TIME) -benchmem . > bench-micro.out
	$(GO) run ./cmd/benchjson < bench-micro.out > BENCH_$(BENCH_DATE).json
	@rm -f bench-micro.out
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Local mirror of the CI distributed-determinism job: a plan executed by 4
# worker processes and merged must be byte-identical to a single-process run
# (same canonical digest, same on-disk bytes).
dist-check:
	@rm -rf /tmp/impressions-dist-check && mkdir -p /tmp/impressions-dist-check
	$(GO) build -o /tmp/impressions-dist-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-dist-check; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -digest -out single | grep '^image digest:' > single.digest; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4 -plan plan.json; \
	pids=""; for s in 0 1 2 3; do ./impressions worker -plan plan.json -shard $$s -out merged -manifest manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions merge -plan plan.json -print-digest manifest-*.json > merged.digest; \
	cmp single.digest merged.digest; diff -r single merged; \
	echo "dist-check: OK (digests and trees identical)"

# Local mirror of the CI fault-injection step: plan → 4 workers, one killed
# mid-write (its manifest discarded so the outcome is timing-independent) →
# `merge -partial` names the outstanding shard and its re-run command →
# resuming exactly as instructed → digest and tree byte-identical to the
# single-process run.
dist-fault-check:
	@rm -rf /tmp/impressions-fault-check && mkdir -p /tmp/impressions-fault-check/work
	$(GO) build -o /tmp/impressions-fault-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-fault-check; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -digest -out single | grep '^image digest:' > single.digest; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 4 -plan work/plan.json; \
	pids=""; for s in 0 1 2; do ./impressions worker -plan work/plan.json -shard $$s -out merged -manifest work/manifest-$$s.json & pids="$$pids $$!"; done; \
	./impressions worker -plan work/plan.json -shard 3 -out merged -manifest work/manifest-3.json & victim=$$!; \
	sleep 0.2; kill -9 $$victim 2>/dev/null || true; \
	for p in $$pids; do wait "$$p"; done; wait $$victim || true; \
	rm -f work/manifest-3.json; \
	./impressions merge -partial -plan work/plan.json -out merged work/manifest-*.json > partial.out; \
	grep -q 'shard 3: missing' partial.out; \
	grep -q 'worker -plan work/plan.json -shard 3 -out merged -manifest work/manifest-3.json' partial.out; \
	./impressions worker -plan work/plan.json -shard 3 -out merged -manifest work/manifest-3.json; \
	./impressions merge -plan work/plan.json -print-digest work/manifest-*.json > merged.digest; \
	cmp single.digest merged.digest; diff -r single merged; \
	echo "dist-fault-check: OK (killed worker resumed; digest and tree identical)"

# Local mirror of the CI serve-check job: boot impressionsd on an ephemeral
# port, pull a plan and all its shards over HTTP, execute and merge them
# locally, and require the canonical digest of an in-process run — then
# require the repeated plan request to be a cache hit. Also writes the serve
# latency metrics (plans/sec, hit rate, p50/p95/p99) as SERVE_<date>.json.
serve-check:
	@rm -rf /tmp/impressions-serve-check && mkdir -p /tmp/impressions-serve-check
	$(GO) build -o /tmp/impressions-serve-check/impressionsd ./cmd/impressionsd
	$(GO) build -o /tmp/impressions-serve-check/benchrunner ./cmd/benchrunner
	@set -e; cd /tmp/impressions-serve-check; \
	./impressionsd -addr 127.0.0.1:0 -workers 4 > daemon.log 2>&1 & dpid=$$!; \
	trap 'kill -TERM $$dpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^impressionsd: listening on //p' daemon.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "daemon never came up:"; cat daemon.log; exit 1; }; \
	./benchrunner serve -base "http://$$addr" -check -requests 24 -specs 6 \
		-bench-json SERVE_$(BENCH_DATE).json; \
	kill -TERM $$dpid; wait $$dpid; \
	grep -q 'impressionsd: stopped' daemon.log; \
	cp SERVE_$(BENCH_DATE).json $(CURDIR)/; \
	echo "serve-check: OK (wrote SERVE_$(BENCH_DATE).json)"

# Local mirror of the CI fleet fault-injection job: boot impressionsd as a
# shard scheduler with fast fault detection, join 3 workers — one rigged to
# SIGKILL itself mid-shard — and drive a whole run through POST /v1/runs.
# The run must report at least one re-queue (the kill was noticed and the
# shard re-leased, resuming from the victim's journal) and the fleet digest
# must be byte-identical to a local single-process run. Also writes the
# fleet metrics (shards/sec, requeues, lease-expiry p95) as FLEET_<date>.json.
fleet-fault-check:
	@rm -rf /tmp/impressions-fleet-check && mkdir -p /tmp/impressions-fleet-check/out /tmp/impressions-fleet-check/work
	$(GO) build -o /tmp/impressions-fleet-check/impressionsd ./cmd/impressionsd
	$(GO) build -o /tmp/impressions-fleet-check/impressions ./cmd/impressions
	$(GO) build -o /tmp/impressions-fleet-check/benchrunner ./cmd/benchrunner
	@set -e; cd /tmp/impressions-fleet-check; \
	./impressionsd -addr 127.0.0.1:0 -workers 4 \
		-heartbeat-interval 150ms -heartbeat-misses 3 -lease-ttl 60s -inline-grace -1s \
		> daemon.log 2>&1 & dpid=$$!; \
	trap 'kill -TERM $$dpid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^impressionsd: listening on //p' daemon.log); \
		[ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "daemon never came up:"; cat daemon.log; exit 1; }; \
	./impressions worker -join "http://$$addr" -out out -work work -fail-after-files 40 > victim.log 2>&1 & victim=$$!; \
	wpids=""; for w in 1 2; do \
		./impressions worker -join "http://$$addr" -out out -work work > worker-$$w.log 2>&1 & wpids="$$wpids $$!"; \
	done; \
	./benchrunner fleet -base "http://$$addr" -shards 8 -files 3000 -seed 20090225 \
		-check -require-requeue 1 -bench-json FLEET_$(BENCH_DATE).json; \
	wait $$victim && { echo "victim worker was supposed to be killed mid-shard:"; cat victim.log; exit 1; } || true; \
	for p in $$wpids; do kill -TERM $$p 2>/dev/null || true; done; \
	for p in $$wpids; do wait $$p || true; done; \
	kill -TERM $$dpid; wait $$dpid; \
	grep -q 'impressionsd: stopped' daemon.log; \
	grep -q 'marking dead' daemon.log; \
	cp FLEET_$(BENCH_DATE).json $(CURDIR)/; \
	echo "fleet-fault-check: OK (killed worker re-queued; digest matches single-process run)"

# Local mirror of the CI image-sink job: the direct tar sink must agree
# with the VFS path (same canonical digest), the archive must be readable
# by system tar, and a plan executed by 3 tar-segment workers and stitched
# must be byte-identical to the single-process tar of the same spec.
image-sink-check:
	@rm -rf /tmp/impressions-image-check && mkdir -p /tmp/impressions-image-check
	$(GO) build -o /tmp/impressions-image-check/impressions ./cmd/impressions
	@set -e; cd /tmp/impressions-image-check; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -format tar -out single.tar -digest | grep '^image digest:' > tar.digest; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -digest -out vfs | grep '^image digest:' > vfs.digest; \
	cmp tar.digest vfs.digest; \
	tar -tf single.tar > /dev/null; \
	./impressions plan -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -shards 3 -plan plan.json; \
	pids=""; for s in 0 1 2; do ./impressions worker -plan plan.json -shard $$s -format tar -out seg$$s.tar -manifest manifest-$$s.json & pids="$$pids $$!"; done; \
	for p in $$pids; do wait "$$p"; done; \
	./impressions stitch -plan plan.json -out stitched.tar seg0.tar seg1.tar seg2.tar; \
	cmp single.tar stitched.tar; \
	./impressions merge -plan plan.json -print-digest manifest-*.json > merged.digest; \
	cmp tar.digest merged.digest; \
	./impressions -files 3000 -dirs 600 -size-mu 8 -size-sigma 1.2 -seed 20090225 -format squashfs -out image.squashfs; \
	echo "image-sink-check: OK (tar digest matches VFS; 3-worker stitch byte-identical)"

# The end-to-end benchmark (e2ebench/) is its own module, so the root
# `go build ./...` never compiles it: vet and self-test it here so a change
# to the library API it calls fails CI instead of the next benchmark run.
e2e-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

# Local mirror of the CI memory-bound job: a 1M-file streamed plan build
# and a 10M-file partitioned (spilled) build must hold peak live heap under
# the same hard cap (see TestStreamedPlanBuildMemoryBound and
# TestPartitionedPlanBuildMemoryBound).
mem-check:
	$(GO) test ./internal/distribute -run 'TestStreamedPlanBuildMemoryBound|TestPartitionedPlanBuildMemoryBound' -v -timeout 15m

# Local mirror of the CI fuzz step: every decoder of wire bytes another
# process wrote runs under the fuzzer for a fixed time, starting from its
# committed corpus (testdata/fuzz). Any input that panics, returns an
# untyped error or breaks the round trip fails the target.
fuzz-check:
	$(GO) test ./internal/fsimage -run '^$$' -fuzz '^FuzzDecodeChunks$$' -fuzztime 10s
	$(GO) test ./internal/distribute -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime 10s
	$(GO) test ./internal/distribute -run '^$$' -fuzz '^FuzzDecodePlan$$' -fuzztime 10s
	$(GO) test ./internal/distribute -run '^$$' -fuzz '^FuzzDecodeShardView$$' -fuzztime 10s

# lint = the full static gate: stock go vet, gofmt, and the project's
# determinism-contract checkers (cmd/impressionsvet) run as a vet tool so
# findings integrate with go vet's caching and package graph. staticcheck
# and govulncheck run when installed (CI installs pinned versions; local
# runs skip them rather than forcing a download).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) build -o bin/impressionsvet ./cmd/impressionsvet
	$(GO) vet -vettool=$(abspath bin/impressionsvet) ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it pinned)"; fi

fmt:
	gofmt -w .

ci: build lint race bench-smoke
