# Standard checks for the Whale reproduction. `make check` is what CI (and
# reviewers) run: vet, whalevet (the project-specific analyzers), the
# internal/dsps lock-count ceiling, the tuple-accessor gate, build, the full test suite, a full-repo
# race pass (slow simulation tests skip under -short, keeping the race gate
# to a few minutes), and the seeded chaos soak.

GO ?= go

# What `make loc` and `make loc-gate` count as a mutex field, a rank tag, a
# goroutine launch (a `go` statement) and a clock site (a ticker, timer,
# sleep or timed channel).
MUTEX_RE = sync\.(RW)?Mutex
RANK_RE = //whale:lockrank
GO_RE = ^[[:space:]]*go[[:space:]]
CLOCK_RE = time\.(NewTicker|NewTimer|AfterFunc|After|Sleep|Tick)\(

.PHONY: check vet whalevet vet-baseline loc-gate values-gate build test race chaos fmt bench bench-pair cover cover-gate loc

check: vet whalevet vet-baseline loc-gate values-gate build test race chaos

vet:
	$(GO) vet ./...

whalevet:
	$(GO) run ./cmd/whalevet ./...

# Analyzer-coverage gate against the committed VET_BASELINE.txt: fails if
# the registered analyzer count drops below the baseline (an analyzer was
# lost or stopped registering) or the full-repo run is no longer clean.
# Raise the baseline in VET_BASELINE.txt when a new analyzer lands.
vet-baseline:
	@want=$$(awk '$$1=="analyzers"{print $$2}' VET_BASELINE.txt); \
	got=$$($(GO) run ./cmd/whalevet -list | wc -l); \
	if [ "$$got" -lt "$$want" ]; then \
	  echo "vet-baseline: $$got analyzers registered, baseline requires >= $$want" >&2; \
	  exit 1; \
	fi; \
	if ! $(GO) run ./cmd/whalevet ./...; then \
	  echo "vet-baseline: full-repo whalevet pass is no longer clean (baseline: $$(awk '$$1=="findings"{print $$2}' VET_BASELINE.txt) findings)" >&2; \
	  exit 1; \
	fi; \
	echo "vet-baseline: ok ($$got analyzers, clean full-repo pass)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Seeded fault-injection soak: drop/delay/duplication noise, a transient
# partition, and an interior-relay crash over all-grouping traffic, run
# twice under the same seed to check the outcome is deterministic.
chaos:
	$(GO) test -race -short -count=1 ./internal/chaos/...

fmt:
	gofmt -l -w .

bench:
	$(GO) test -bench=. -benchmem ./...

# Alternating live-engine benchmark pairs against a git ref:
#   make bench-pair REF=<ref> N=10 [WORKLOADS="fanout_whale ride_join"]
# archives REF into .bench_build/parent and runs each workload N times there
# and N times in the working tree with `benchmark/run.sh --workload`, one
# seed per pair. The two runs of a pair are back to back (the parent first
# in odd pairs), so they are a workload's run length apart, not a whole
# sweep's. cmd/benchpair folds each run's result line into its side's
# parent_<i>.json or change_<i>.json and prints the table: per workload and
# end-to-end metric, both medians with their quartiles, the change in the
# median, in how many pairs the change was better, and a verdict against the
# metric's bound in BENCHMARK.json (worse, unresolved or ok). The target
# fails when a row is worse or the change failed more runs than the
# parent. The raw results
# stay in .bench_build/pairs: each run's whole output, comment lines and
# verification detail and stderr included, as <side>_<pair>_<workload>.txt.
REF ?= HEAD
N ?= 10
WORKLOADS ?= fanout_whale fanout_storm ride_join stock_reliable

bench-pair:
	rm -rf .bench_build/parent .bench_build/pairs
	mkdir -p .bench_build/parent .bench_build/pairs
	git archive $(REF) | tar -x -C .bench_build/parent
	$(GO) build -o .bench_build/benchpair ./cmd/benchpair
	@for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
	  for w in $(WORKLOADS); do \
	    for side in $$order; do \
	      dir=.; [ $$side = parent ] && dir=.bench_build/parent; \
	      echo "bench-pair: pair $$i of $(N), $$w, $$side" >&2; \
	      out=.bench_build/pairs/$${side}_$${i}_$$w.txt; \
	      (cd $$dir && benchmark/run.sh --workload $$w --seed $$((100 + i)) --seconds 24 --trace 0) \
	        >$$out 2>&1 || true; \
	      .bench_build/benchpair -merge .bench_build/pairs/$${side}_$$i.json -workload $$w $$out || exit 1; \
	    done; \
	  done; \
	done
	.bench_build/benchpair -spec BENCHMARK.json -workloads "$(WORKLOADS)" .bench_build/pairs

# Statement coverage over the tier-1 sweep (the same `go test ./...` the
# test job runs), written to coverage.out.
cover:
	$(GO) test -coverprofile=coverage.out ./...

# Coverage floor gate against the committed COVERAGE_FLOOR.txt: fails when
# the total statement coverage drops below the floor. Raise the floor when
# coverage durably improves; never lower it to admit a regression.
cover-gate: cover
	@floor=$$(awk '$$1=="total"{print $$2}' COVERAGE_FLOOR.txt); \
	total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/{sub(/%/,"",$$3); print $$3}'); \
	if [ -z "$$total" ]; then \
	  echo "cover-gate: could not read total coverage from coverage.out" >&2; \
	  exit 1; \
	fi; \
	if awk -v t="$$total" -v f="$$floor" 'BEGIN{exit !(t < f)}'; then \
	  echo "cover-gate: total coverage $$total% is below the committed floor $$floor%" >&2; \
	  exit 1; \
	fi; \
	echo "cover-gate: ok ($$total% >= floor $$floor%)"

# Size and concurrency surface per package under internal/ (non-test files
# only): source lines, sync.Mutex/RWMutex fields, //whale:lockrank tags, `go`
# statements, time.NewTicker sites and clock sites (CLOCK_RE, tickers
# included), as a markdown table. The quality-of-design trend the ROADMAP
# asks for: CI appends it to the job summary, and each PR reports the rows
# it moves in CHANGES.md.
loc:
	@printf '| %-32s | %6s | %7s | %9s | %3s | %7s | %6s |\n' package lines mutexes lockranks go tickers clocks
	@printf '|%s|%s|%s|%s|%s|%s|%s|\n' ---------------------------------- -------: --------: ----------: ----: --------: -------:
	@for d in $$(find internal -type d -not -path '*/testdata*' | sort); do \
	  f=$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go'); \
	  [ -n "$$f" ] || continue; \
	  printf '| %-32s | %6d | %7d | %9d | %3d | %7d | %6d |\n' $$d \
	    $$(cat $$f | wc -l) \
	    $$(cat $$f | grep -cE '$(MUTEX_RE)') \
	    $$(cat $$f | grep -c '$(RANK_RE)') \
	    $$(cat $$f | grep -cE '$(GO_RE)') \
	    $$(cat $$f | grep -c 'time\.NewTicker(') \
	    $$(cat $$f | grep -cE '$(CLOCK_RE)'); \
	done

# Ceilings against the committed LOC_CEILING.txt, one `<package> <count>
# <max>` row each, counted as `make loc` counts them (non-test files): fails
# when a package has more mutex fields, //whale:lockrank tags, `go`
# statements or clock sites than its row allows. A new lock or goroutine in
# internal/dsps (DESIGN §8, "How state is shared") or a new clock in
# internal/rdma (DESIGN §11) is a design decision: raise the ceiling in the
# PR that argues for it; lower it when one goes.
loc-gate:
	@grep -v '^#' LOC_CEILING.txt | while read -r pkg count max; do \
	  [ -n "$$pkg" ] || continue; \
	  case $$count in \
	    mutexes) re='$(MUTEX_RE)' ;; \
	    lockranks) re='$(RANK_RE)' ;; \
	    go) re='$(GO_RE)' ;; \
	    clocks) re='$(CLOCK_RE)' ;; \
	    *) echo "loc-gate: LOC_CEILING.txt names an unknown count '$$count'" >&2; exit 1 ;; \
	  esac; \
	  got=$$(cat $$(find $$pkg -maxdepth 1 -name '*.go' -not -name '*_test.go') | grep -cE "$$re"); \
	  if [ -z "$$max" ] || [ "$$got" -gt "$$max" ]; then \
	    echo "loc-gate: $$pkg has $$got $$count, committed ceiling is $${max:-missing}" >&2; \
	    exit 1; \
	  fi; \
	  echo "loc-gate: ok ($$pkg $$count $$got <= ceiling $$max)"; \
	done

# A received tuple keeps its fields as wire bytes and leaves Values nil
# (internal/tuple's package doc), so code outside internal/tuple reads fields
# through the accessors. Fails on any `.Values` selector in a non-test file
# outside internal/tuple and internal/analyzers (whose go/ast ValueSpec.Values
# is another thing). Building a tuple with a `Values:` key is not a selector
# and stays allowed.
values-gate:
	@hits=$$(find . -path './.*' -prune -o -name '*.go' -not -name '*_test.go' -print | \
	  grep -vE '^\./internal/(tuple|analyzers)/' | xargs grep -nE '\.Values\b'); \
	if [ -n "$$hits" ]; then \
	  echo "values-gate: read tuple fields through the accessors, not Values:" >&2; \
	  echo "$$hits" >&2; \
	  exit 1; \
	fi; \
	echo "values-gate: ok (no Values reads outside internal/tuple)"
