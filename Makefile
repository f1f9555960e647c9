# Tier-1 gate: everything must compile, vet and gofmt clean, and pass the
# full test suite under the race detector (the Engine and collective tests
# rely on it).
.PHONY: check build test vet race bench bench-module fuzz cover loc sweep stress-tcp

check: vet build race

vet:
	go vet ./...
	@unformatted=$$(find . -name '*.go' ! -path './.bench_build/*' -print0 | xargs -0 gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Kernel rows: the top-k selection kernel across the benchmark workloads'
# tensor sizes and input shapes, and the three matmul kernels at mlpwide's
# layer shapes (ns per multiply-add). Engine.Step and the training step are
# measured by the benchmark module alone (bash benchmark/run.sh, judged by
# go -C benchmark run . -compare).
bench:
	go test -run xxx -bench BenchmarkTopK -benchmem ./internal/compress/cbase
	go test -run xxx -bench 'BenchmarkMatmul$$' -benchmem ./internal/tensor

# benchmark/ is a Go module of its own, so the root `go vet`/`go test ./...`
# never compile it: a comm or grace symbol it uses could be renamed and only
# the benchmark pipeline would notice. Vet and test it here, in the same
# offline, checkout-local environment benchmark/run.sh builds in.
BENCHMOD_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOPATH=$(CURDIR)/.bench_build/gopath \
	XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config GOENV=off GOPROXY=off GOTOOLCHAIN=local
bench-module:
	mkdir -p .bench_build
	$(BENCHMOD_ENV) go -C benchmark vet ./...
	$(BENCHMOD_ENV) go -C benchmark test -count=1 ./...

# Kill-point sweep: the tier-1 hub grid (restart and rejoin, every kill rank
# and step, topk + EF and dgc) under the race detector, plus shrink over the
# same grid and once per registered method — 52 points that each wait out
# the survivors' rejoin deadline, so they run here, once, as a benchmark
# rather than in every go test.
sweep:
	go test -race -count=1 -run TestScenarioKillPointSweep ./internal/harness
	go test -race -count=1 -run xxx -bench BenchmarkScenarioKillPointSweepShrink -benchtime 1x ./internal/harness

# TCP stress: the harness's SIGKILL and TCP batteries, uncached, STRESS_N
# times, while the comm tests loop under the race detector beside them (other
# rings live on loopback, 2 CPUs contended: the load the TCP flakes surfaced
# under). Prints the failure count and keeps every failing run's full output
# in STRESS_DIR (a failing comm run's too). Minutes long, so not part of CI.
STRESS_N ?= 20
STRESS_DIR ?= stress-tcp
stress-tcp:
	@mkdir -p $(STRESS_DIR); \
	setsid sh -c 'j=0; while :; do j=$$((j+1)); \
		go test -race -count=20 ./internal/comm > $(STRESS_DIR)/.comm.log 2>&1 || mv $(STRESS_DIR)/.comm.log $(STRESS_DIR)/comm$$j.log; \
		done' & bg=$$!; \
	trap 'kill -- -$$bg 2>/dev/null; rm -f $(STRESS_DIR)/.comm.log' EXIT INT TERM; \
	fails=0; \
	for i in $$(seq 1 $(STRESS_N)); do \
		log=$(STRESS_DIR)/harness$$i.log; \
		if go test -count=1 -v -run 'SIGKILL|TCP' ./internal/harness > $$log 2>&1; then \
			echo "run $$i: ok $$(tail -n 1 $$log)"; rm $$log; \
		else \
			fails=$$((fails+1)); echo "run $$i: FAIL, output kept in $$log"; \
		fi; \
	done; \
	echo "stress-tcp: $$fails of $(STRESS_N) harness runs failed; failing comm runs: $$(ls $(STRESS_DIR) | grep -c '^comm')"

# Fuzz smoke: run every fuzz target for a short burst. Decoders must reject
# hostile payloads with errors — never panic or over-allocate.
FUZZTIME ?= 10s
fuzz:
	go test -run xxx -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/comm
	go test -run xxx -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME) ./internal/comm
	go test -run xxx -fuzz FuzzSplitFused -fuzztime $(FUZZTIME) ./internal/comm
	go test -run xxx -fuzz FuzzRingHandshake -fuzztime $(FUZZTIME) ./internal/comm
	go test -run xxx -fuzz FuzzElasticHandshake -fuzztime $(FUZZTIME) ./internal/comm
	go test -run xxx -fuzz FuzzDecompressAll -fuzztime $(FUZZTIME) ./internal/compress/all
	go test -run xxx -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/compress/topk
	go test -run xxx -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/compress/randomk
	go test -run xxx -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/compress/qsgd
	go test -run xxx -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/compress/eightbit
	go test -run xxx -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/compress/huffcoded
	go test -run xxx -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/ckpt
	go test -run xxx -fuzz FuzzAutotuneState -fuzztime $(FUZZTIME) ./internal/ckpt

# Coverage gate: the packages at the heart of the correctness story may not
# drop below their floors (current: grace 88.7, comm 81.0, ckpt 88.9 — the
# floors leave a little headroom for refactoring noise, not for deleted
# tests).
cover:
	@set -e; for spec in ./internal/grace:88 ./internal/comm:80 ./internal/ckpt:86; do \
		pkg=$${spec%:*}; floor=$${spec##*:}; \
		line=$$(go test -cover -count=1 $$pkg); echo "$$line"; \
		pct=$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage figure for $$pkg"; exit 1; fi; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p+0 >= f+0)}' \
			|| { echo "FAIL: $$pkg coverage $$pct% is below the $$floor% floor"; exit 1; }; \
	done

# Size ledger: non-test Go line counts (wc -l), in total outside benchmark/
# and for the groups simplification PRs set targets on, plus the longest
# function in the trainer files, so size criteria are one command.
LOC_HARNESS = internal/harness/scenario.go internal/harness/scaffold.go
LOC_TRAINER = internal/grace/trainer.go internal/grace/rejoin.go internal/grace/elastic.go internal/grace/checkpoint.go
loc:
	@echo "non-test Go outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' \
		! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"
	@echo "internal/grace/engine.go: $$(cat internal/grace/engine.go | wc -l)"
	@for dir in internal/grace internal/comm internal/harness internal/telemetry internal/compress; do \
		echo "$$dir (non-test, with subpackages): $$(find $$dir -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"; \
	done
	@echo "harness scenario files ($(LOC_HARNESS)): $$(cat $(LOC_HARNESS) | wc -l)"
	@echo "cmd/gracetrain: $$(cat cmd/gracetrain/*.go | wc -l)"
	@echo "cmd/graceworker: $$(cat cmd/graceworker/*.go | wc -l)"
	@echo "internal/ckpt (non-test): $$(find internal/ckpt -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "grace trainer files ($(LOC_TRAINER)): $$(cat $(LOC_TRAINER) | wc -l)"
	@awk 'FNR==1{fn=""} /^func /{fn=$$0; start=FNR} /^}/{if(fn!=""){n=FNR-start+1; if(n>best){best=n; name=fn}; fn=""}} \
		END{sub(/ *\{$$/, "", name); print "longest function in the grace trainer files: " best " lines: " name}' $(LOC_TRAINER)
