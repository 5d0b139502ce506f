# Convenience entry points mirroring the CI gates. Each target is a
# plain go/gofmt one-liner, so everything here also works without make.

.PHONY: lint lint-json lint-sarif fmt test bench profile verify loc

# The compile-time invariant gate: formatting, go vet, plus the
# hybridlint analyzer suite (same as CI's lint job, minus govulncheck
# which needs network access to the vuln DB).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "unformatted files:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/hybridlint ./...

# Machine-readable lint reports (out/lint/). The JSON report doubles as
# the -baseline format; the SARIF file is what CI uploads to code
# scanning.
lint-json:
	mkdir -p out/lint
	go run ./cmd/hybridlint -json ./... > out/lint/hybridlint.json; \
		status=$$?; cat out/lint/hybridlint.json; exit $$status

lint-sarif:
	mkdir -p out/lint
	go run ./cmd/hybridlint -sarif ./... > out/lint/hybridlint.sarif; \
		status=$$?; echo "wrote out/lint/hybridlint.sarif"; exit $$status

fmt:
	gofmt -w .

test:
	go build ./...
	go test ./...

bench:
	go test -bench=. -benchtime=1x -run '^$$' .

# CPU + heap profiles of the quick-size Table-I sweep. It runs no slot
# loop, and its small sizes misweight the layers against full size, so
# take per-layer numbers from `bash perfbench/run.sh --workload
# table1-full --trace 1` (slot loop: `--workload slotsim`). Inspect with
# `go tool pprof out/pprof/cpu.out` (then `top`, `list <func>`, `web`).
profile:
	mkdir -p out/pprof
	go test -bench 'BenchmarkTable1$$' -benchtime=1x -run '^$$' \
		-cpuprofile out/pprof/cpu.out -memprofile out/pprof/mem.out \
		-o out/pprof/bench.test .
	@echo "profiles written to out/pprof/ (cpu.out, mem.out; binary bench.test)"

# Non-test Go line count, the "fewer non-test lines" measure: every
# .go file except tests, testdata and the separate perfbench module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' \
		-not -path './perfbench/*' -not -path './.*' | xargs cat | wc -l

# Everything CI checks, in order. perfbench is a separate module (the
# only out-of-module consumer of the store APIs), so ./... skips it.
verify: lint test
	go test -run TestSweepDeterminism -race ./internal/experiments/
	cd perfbench && go vet ./... && go test ./...
