# Local and CI invocations are identical: .github/workflows/ci.yml calls
# these targets, so a green `make check` locally means a green CI run.

GO ?= go

.PHONY: build test race lint bench bench-json faults serve-test swap-test kernel-test chaos-test fleet-test check fmt

build: ## compile every package
	$(GO) build ./...

test: ## run the tier-1 test suite
	$(GO) test ./...

race: ## run the test suite under the race detector
	$(GO) test -race -timeout 30m ./...

lint: ## gofmt (fail on diff), go vet, and the evaxlint suite
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/evaxlint ./...

bench: ## run the microbenchmarks
	$(GO) test -bench=. -benchmem -run=^$$ .

bench-json: ## runner speedup + equivalence report (BENCH_runner.json), then the equivalence tests under -race
	$(GO) run ./cmd/evaxbench -benchjson BENCH_runner.json -quick
	$(GO) test -race -count=1 -run ParallelEquivalence ./internal/dataset ./internal/experiments

faults: ## fault-injection suite under -race: torn writes, injected errors/panics, kill-and-resume
	$(GO) test -race -count=1 ./internal/safeio ./internal/checkpoint ./internal/faultinject
	$(GO) test -race -count=1 -run 'Fallback|Torn|KillAndResume|Resume' ./internal/defense ./internal/engine ./internal/dataset ./internal/experiments

serve-test: ## online serving suite under -race at GOMAXPROCS 1, 2 and 4: e2e bit-equivalence, kill-and-drain, admission control, load harness, plus a frame-decoder fuzz smoke
	$(GO) test -race -count=1 -cpu 1,2,4 -timeout 15m ./internal/serve ./internal/benchjson
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/serve

swap-test: ## live-vaccination gate under -race: generation lifecycle, canary gating, crash-safe staging, zero-downtime hot swap
	$(GO) test -race -count=1 ./internal/engine
	$(GO) test -race -count=1 -run 'Swap|Admin|Manager|Generation|Watch|Rescan' ./internal/serve ./internal/defense

kernel-test: ## fused-kernel gate: bit-identity, quantized agreement, zero-alloc checks, under -race
	$(GO) test -race -count=1 ./internal/kernel ./internal/perceptron
	$(GO) test -race -count=1 -run 'Scorer|Backend' ./internal/serve
	$(GO) test -race -count=1 -run 'FlagWindow|DetectorFlagger' ./internal/defense

chaos-test: ## chaos gate under -race at GOMAXPROCS 1, 2 and 4: deterministic fault injection, resilient-client recovery, exactly-once verdict accounting, session resume, leak checks
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/netfault ./internal/serve/client
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Session|Idle|HalfClose|Resume' ./internal/serve

fleet-test: ## sharded fleet gate under -race at GOMAXPROCS 1, 2 and 4: ring routing, pub/sub bus, digest invariance across shard counts, mid-replay fleet swap, coordinator restart
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/fleet
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'PromoteAllFile|ConnStatsFrame' ./internal/engine ./internal/serve

fmt: ## rewrite sources with gofmt
	gofmt -w .

check: build lint test ## everything except race/bench (fast pre-push gate)
