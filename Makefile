# Targets mirror .github/workflows/ci.yml so local runs and CI can't
# drift: `make ci` is CI's `test` job; the workflow's network-dependent
# extras map to `make staticcheck` (needs the module proxy, so it is not
# part of `ci` — sandboxes run offline) and `make bench-json` (the bench
# artifact job).

GO ?= go

# Bench noise floor. The regression-gated family (the engine, signatures,
# run-to-precision, table-open, smart-star synthesis and sharded-build
# benches) runs time-based with
# -count=5 under an explicit GOMAXPROCS, and the compare gate takes the
# per-metric best of the five runs — one preempted run on a shared runner
# cannot fail the gate. BENCH_TOLERANCE bounds time and rate metrics only
# and absorbs what remains (runner-to-runner CPU variance). Allocation
# metrics are machine-independent, so cmd/benchjson holds them to a fixed
# tight bound instead: B/op may rise 5%, allocs/op 5% and 2 allocations.
# An allocation metric whose five baseline runs already spread wider than
# that keeps BENCH_TOLERANCE.
BENCH_GOMAXPROCS ?= 1
BENCH_GATED      ?= ^(BenchmarkEngine|BenchmarkTableOpen|BenchmarkSmartSynthesis|BenchmarkBuildSharded|BenchmarkSignatures|BenchmarkRunToPrecision)
BENCH_GATED_TIME ?= 400ms
BENCH_TOLERANCE  ?= 60

.PHONY: all build test bench-module bench bench-json bench-baseline bench-compare fuzz cover staticcheck govulncheck fmt fmt-check vet quickstart serve-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# bench/ is its own Go module (repro/bench, `replace repro => ../`), so
# the root vet and test never compile it. Vet and test it on its own —
# TestBenchSmoke runs every workload at toy size, ~20 s — so a change to
# the table or sample API it imports cannot break it silently.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# CI's fuzz smoke: short coverage-guided runs of the packed-codec
# round-trip target, the serve request decoder and the streaming-vs-buffered
# edge-list readers. One -fuzz target per `go test` invocation is a
# `go test` restriction, hence three runs.
fuzz:
	$(GO) test -run='^$$' -fuzz=Fuzz -fuzztime=10s ./internal/table
	$(GO) test -run='^$$' -fuzz=FuzzCountRequest -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/graph

# Coverage with the recorded-baseline gate CI enforces: the total
# statement percentage must not drop more than 2 points below
# COVERAGE_BASELINE. Deliberately NOT merged into the -race run: race
# detection plus atomic coverage counters slows the graphlet
# canonicalization brute-force tests ~60x and blows the package timeout,
# so the race gate (`make test`) and the coverage gate stay separate runs.
# Refresh the baseline (after genuinely improving coverage) with:
#   go tool cover -func=cover.out | awk '$$1=="total:"{print substr($$3,1,length($$3)-1)}' > COVERAGE_BASELINE
cover:
	@test -f COVERAGE_BASELINE || { echo "COVERAGE_BASELINE missing" >&2; exit 1; }
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '$$1=="total:"{print substr($$3,1,length($$3)-1)}'); \
	base=$$(cat COVERAGE_BASELINE); \
	test -n "$$total" && test -n "$$base" || { echo "could not compute coverage total/baseline" >&2; exit 1; }; \
	echo "coverage: $$total% (baseline $$base%, gate $$base-2)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { if (t+2 < b) { print "coverage dropped more than 2 points below baseline"; exit 1 } }'

# One iteration of every benchmark: a compile-and-run smoke pass, not a
# measurement (use `go test -bench=. -benchtime=1s` for numbers).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# What CI's bench job runs: measured benchmarks converted to the
# BENCH_ci.json trajectory artifact via cmd/benchjson. Two bench passes
# with per-family -benchtime — the gated engine family measured for real
# (time-based, five counts), the rest of the suite as a cheap trajectory —
# then the conversion. No pipes, so a failing benchmark fails the target
# instead of being masked.
bench-json:
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run='^$$' -bench '$(BENCH_GATED)' -benchtime=$(BENCH_GATED_TIME) -count=5 . > bench.txt
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run='^$$' -bench . -benchtime=3x -count=3 ./... >> bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_ci.json bench.txt

# Refresh the committed perf floor: measure the gated family exactly the
# way bench-json does and overwrite BENCH_baseline.json. Run after an
# intentional perf change (or a benchmark rename), eyeball the diff, and
# commit the new file — CI's bench-compare enforces it from then on.
bench-baseline:
	GOMAXPROCS=$(BENCH_GOMAXPROCS) $(GO) test -run='^$$' -bench '$(BENCH_GATED)' -benchtime=$(BENCH_GATED_TIME) -count=5 . > bench_baseline.txt
	$(GO) run ./cmd/benchjson -o BENCH_baseline.json bench_baseline.txt
	@rm -f bench_baseline.txt

# The regression gate CI runs after bench-json: every (benchmark, metric)
# of the committed baseline must be present and no worse than
# BENCH_TOLERANCE percent in this run's BENCH_ci.json.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json -tolerance $(BENCH_TOLERANCE) BENCH_ci.json

# Same pinned version as CI's staticcheck job.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2026.1 ./...

# Same pinned version as CI's govulncheck job. Like staticcheck this needs
# the module proxy, so it is not part of `ci` (sandboxes run offline).
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

quickstart:
	$(GO) run ./examples/quickstart

# The serve smoke CI runs: build two tiny tables, start a two-graph
# `motivo serve`, and drive the v1 API over HTTP — list both graphs
# (asserting both are served off memory mappings, with the mapped-bytes
# gauge visible in /metrics), run a seeded count twice asserting the
# repeat is a byte-identical cache hit (visible in /metrics), post a
# batch, fetch per-node signatures, run a capped run-to-precision count
# asserting its certificate (and both new counters in /metrics), check a
# non-canonical target motif answers 400 bad_request, and keep the legacy
# /count + /stats aliases honest (needs curl + jq). Last, rebuild the
# served er table in place with another seed. The server also serves that
# table as er-cold, whose engine reads no record after opening it; the
# server keeps both old mappings, so er-cold answers the signatures query
# (never cached) that er answered before the rebuild byte-identically but
# for its name and timing. (er itself proves nothing here: its caches hold
# every record the repeated query reads.) Everything runs under `set -e`
# in a fresh temporary directory, removed on exit with the server stopped,
# so every assertion fails the target. One copy of the script — the
# workflow step calls this target.
serve-smoke:
	set -e; dir=$$(mktemp -d); pid=; \
	trap 'test -z "$$pid" || kill $$pid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/motivo ./cmd/motivo; \
	$$dir/motivo gen -type er -n 80 -m 240 -seed 1 -o $$dir/er.txt; \
	$$dir/motivo build -i $$dir/er.txt -k 4 -seed 5 -o $$dir/er.tbl; \
	$$dir/motivo gen -type ba -n 60 -m 3 -seed 2 -o $$dir/ba.txt; \
	$$dir/motivo build -i $$dir/ba.txt -k 3 -seed 9 -o $$dir/ba.tbl; \
	$$dir/motivo serve -graph er=$$dir/er.txt:$$dir/er.tbl \
		-graph ba=$$dir/ba.txt:$$dir/ba.tbl -graph er-cold=$$dir/er.txt:$$dir/er.tbl \
		-cache-size 64 -max-inflight 8 -addr 127.0.0.1:18080 & pid=$$!; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS http://127.0.0.1:18080/v1/graphs \
		| jq -e '(.graphs | map(.name)) == ["ba", "er", "er-cold"] and (.graphs | all(.resident)) and (.graphs | all(.mappedBytes > 0))'; \
	curl -fsS http://127.0.0.1:18080/metrics \
		| awk '$$1 == "motivo_mapped_table_bytes" { found = 1; if ($$2 + 0 <= 0) exit 1 } END { exit found ? 0 : 1 }'; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/graphs/er/count \
		-d '{"strategy":"ags","samples":5000,"seed":7,"top":3}' -o $$dir/cold.json; \
	jq -e '.graph == "er" and .k == 4 and (.counts | length) > 0 and .samples == 5000' $$dir/cold.json; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/graphs/er/count \
		-d '{"strategy":"ags","samples":5000,"seed":7,"top":3}' -o $$dir/warm.json; \
	cmp $$dir/cold.json $$dir/warm.json; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q '^motivo_result_cache_hits_total 1$$'; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/batch \
		-d '{"graph":"ba","queries":[{"samples":2000,"seed":1},{"samples":-1},{"samples":2000,"seed":2}]}' \
		| jq -e '.graph == "ba" and (.results | length) == 3 and .results[0].count.k == 3 and .results[1].code == "bad_request" and .results[2].count.k == 3'; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/graphs/er/signatures \
		-d '{"strategy":"ags","samples":4000,"seed":11,"topNodes":5}' -o $$dir/sig.json; \
	jq -e '.graph == "er" and .k == 4 and (.motifs | length) > 0 and (.nodes | length) == 5 and (.nodes[0].vector | length) == (.motifs | length)' $$dir/sig.json; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/graphs/er/count \
		-d '{"epsilon":0.5,"delta":0.2,"maxSamples":4000,"seed":13}' \
		| jq -e '.strategy == "ags" and .achieved != null and .achieved.samples <= 4000 and .achieved.delta == 0.2'; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q '^motivo_signature_queries_total 1$$'; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q '^motivo_precision_queries_total 1$$'; \
	curl -fsS http://127.0.0.1:18080/metrics | grep -q '^motivo_precision_met_total'; \
	status=$$(curl -sS -o $$dir/bad.json -w '%{http_code}' -X POST http://127.0.0.1:18080/v1/graphs/er/count \
		-d '{"epsilon":0.5,"targetMotif":"gffff"}'); \
	test "$$status" = 400; \
	jq -e '.code == "bad_request"' $$dir/bad.json; \
	curl -fsS -X POST http://127.0.0.1:18080/count -d '{"samples":3000,"seed":3}' \
		| jq -e '.k == 4 and (has("graph") | not)'; \
	curl -fsS http://127.0.0.1:18080/stats | jq -e '.k == 4 and .openMs > 0'; \
	$$dir/motivo build -i $$dir/er.txt -k 4 -seed 6 -o $$dir/er.tbl; \
	curl -fsS -X POST http://127.0.0.1:18080/v1/graphs/er-cold/signatures \
		-d '{"strategy":"ags","samples":4000,"seed":11,"topNodes":5}' -o $$dir/sig-rebuilt.json; \
	jq 'del(.graph, .sampleTimeMs)' $$dir/sig.json > $$dir/sig-before.json; \
	jq 'del(.graph, .sampleTimeMs)' $$dir/sig-rebuilt.json > $$dir/sig-after.json; \
	cmp $$dir/sig-before.json $$dir/sig-after.json

ci: fmt-check vet build test bench-module fuzz bench quickstart serve-smoke cover
