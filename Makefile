# Standard targets for the nutriprofile reproduction.

GO ?= go

.PHONY: all build vet test race bench experiments experiments-check fuzz clean ci fmt-check bench-smoke bench-json cover-check serve-smoke cli-smoke load-smoke load-bench

all: build vet test

# Mirror of .github/workflows/ci.yml: what CI runs, runnable locally.
ci: fmt-check build vet test race cover-check

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

# Mirror of the nightly bench smoke: one iteration of every benchmark.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Measure the perf-gated benchmarks (matching, batch estimation, the
# pooled NLP front-end, and the serving hot path) and emit the
# BENCH_match.json artifact the nightly workflow archives. The parallel
# batch benchmarks also run at -cpu 1,4,8 so the artifact records the
# multi-core scaling curve; benchfmt keys entries by (name, procs) and
# derives each series' parallel efficiency ns1/(N·nsN) into the report.
# BenchmarkRankCold / BenchmarkRankLongPostings (spelled explicitly
# below, though the BenchmarkRank substring already matches them) pin
# the pruned-vs-exhaustive ranking engines at seed and SR26 scale —
# the speedup EXPERIMENTS.md quotes is read off this artifact.
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkMatchName|BenchmarkRank|BenchmarkRankCold|BenchmarkRankLongPostings|BenchmarkMatchSeed|BenchmarkMatchLargeDB|BenchmarkEstimateBatch/^(sequential|cached_warm)$$|BenchmarkTagPhrase|BenchmarkPipelineScratch|BenchmarkServeEstimate|BenchmarkServeRecipe' \
		-benchmem -benchtime=1s ./internal/match/ ./internal/server/ . | tee bench_match.txt
	$(GO) test -run xxx -bench 'BenchmarkLoadBaked|BenchmarkLoadParse' \
		-benchmem -benchtime=1s ./internal/usda/bake/ | tee -a bench_match.txt
	$(GO) test -run xxx -bench 'BenchmarkEstimateBatch/^(parallel|parallel_cached_warm)$$' -cpu 1,4,8 \
		-benchmem -benchtime=1s . | tee -a bench_match.txt
	$(GO) test -run xxx -bench 'BenchmarkMemoZipf|BenchmarkMemoGetHit' \
		-benchmem -benchtime=1s ./internal/memo/ | tee -a bench_match.txt
	$(GO) run ./cmd/benchjson -in bench_match.txt -o BENCH_match.json
	@rm -f bench_match.txt

# Regenerate every table and figure at full harness scale.
experiments:
	$(GO) run ./cmd/experiments -run all

# Gate every "byte-identical" claim: the harness's output must equal
# the first EXPERIMENTS_CHECK_LINES lines of experiments_full.txt, the
# part before its paper-scale appendix. A change that alters behaviour
# updates experiments_full.txt in the same commit.
EXPERIMENTS_CHECK_LINES = 180
experiments-check:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/experiments -run all >"$$out"; \
	if ! head -n $(EXPERIMENTS_CHECK_LINES) experiments_full.txt | diff - "$$out"; then \
		echo "experiments-check: output differs from experiments_full.txt (above: < committed, > now)" >&2; exit 1; \
	fi; \
	echo "experiments-check: output matches the first $(EXPERIMENTS_CHECK_LINES) lines of experiments_full.txt"

# Short fuzzing pass over every parser surface, including the HTTP
# request decoder (arbitrary bodies through the full serving path, and
# the same bodies on every route that shares it).
fuzz:
	$(GO) test -fuzz FuzzParseQuantity -fuzztime 15s ./internal/units/
	$(GO) test -fuzz FuzzParseServings -fuzztime 15s ./internal/units/
	$(GO) test -fuzz FuzzNormalize -fuzztime 15s ./internal/units/
	$(GO) test -fuzz FuzzTokenize -fuzztime 15s ./internal/textutil/
	$(GO) test -fuzz FuzzExpandFractions -fuzztime 15s ./internal/textutil/
	$(GO) test -fuzz FuzzPipelineScratch -fuzztime 15s ./internal/pipeline/
	$(GO) test -fuzz FuzzTagScratchSpec -fuzztime 15s ./internal/ner/
	$(GO) test -fuzz FuzzScratchAdmission -fuzztime 15s ./internal/ner/
	$(GO) test -fuzz FuzzLoadModel -fuzztime 15s ./internal/ner/
	$(GO) test -fuzz FuzzReadCSV -fuzztime 15s ./internal/recipedb/
	$(GO) test -fuzz FuzzMemoAdmission -fuzztime 15s ./internal/memo/
	$(GO) test -fuzz FuzzPruneDifferential -fuzztime 15s ./internal/match/
	$(GO) test -fuzz FuzzParse -fuzztime 15s ./internal/usda/sr/
	$(GO) test -fuzz FuzzLoad -fuzztime 15s ./internal/usda/bake/
	$(GO) test -fuzz FuzzEstimateHandler -fuzztime 15s -run xxx ./internal/server/
	$(GO) test -fuzz FuzzRecipeHandler -fuzztime 15s -run xxx ./internal/server/
	$(GO) test -fuzz FuzzBatchHandler -fuzztime 15s -run xxx ./internal/server/
	$(GO) test -fuzz FuzzRouteLineParity -fuzztime 15s -run xxx ./internal/server/

# Per-package coverage floors for the packages whose regressions hurt
# most in production. The serving layer carries the pooled codec — every
# escape path and error envelope must stay exercised — so its floor is
# higher than the core pipeline's.
SERVER_COVER_FLOOR ?= 85
CORE_COVER_FLOOR ?= 60
METRICS_COVER_FLOOR ?= 80
cover-check:
	@set -e; check() { \
		out=$$($(GO) test -cover $$1); echo "$$out"; \
		pct=$$(echo "$$out" | awk '{for(i=1;i<=NF;i++) if($$i=="coverage:"){gsub("%","",$$(i+1)); print $$(i+1)}}'); \
		if [ -z "$$pct" ]; then echo "cover-check: no coverage reported for $$1" >&2; exit 1; fi; \
		if ! awk -v p="$$pct" -v f="$$2" 'BEGIN{exit !(p+0 >= f+0)}'; then \
			echo "cover-check: $$1 coverage $$pct% below floor $$2%" >&2; exit 1; \
		fi; \
	}; \
	check ./internal/server $(SERVER_COVER_FLOOR); \
	check ./internal/core $(CORE_COVER_FLOOR); \
	check ./internal/metrics $(METRICS_COVER_FLOOR); \
	echo "cover-check: all floors met (server >= $(SERVER_COVER_FLOOR)%, core >= $(CORE_COVER_FLOOR)%, metrics >= $(METRICS_COVER_FLOOR)%)"

# Bake two fixture images, boot nutriserve -db on the first, curl all
# four routes, hot-swap to the second via /admin/reload, verify
# /v1/stats reports the new snapshot, then check SIGTERM drains
# cleanly. The end-to-end smoke CI runs on every push.
SMOKE_ADDR ?= 127.0.0.1:18080
serve-smoke:
	@set -e; \
	$(GO) build -o /tmp/nutriserve ./cmd/nutriserve; \
	$(GO) build -o /tmp/dbbake ./cmd/dbbake; \
	/tmp/dbbake -o /tmp/smoke-a.img >/dev/null; \
	/tmp/dbbake -o /tmp/smoke-b.img -db synth:50 >/dev/null; \
	/tmp/nutriserve -addr $(SMOKE_ADDR) -db /tmp/smoke-a.img -quiet & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(SMOKE_ADDR)/v1/healthz >/dev/null 2>&1; then ok=1; break; fi; sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "serve-smoke: server never became healthy" >&2; exit 1; }; \
	curl -fsS http://$(SMOKE_ADDR)/v1/healthz; echo; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"phrase":"2 cups all-purpose flour"}' http://$(SMOKE_ADDR)/v1/estimate >/dev/null; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"ingredients":["2 cups flour","1 cup sugar","2 eggs"],"servings":4,"method":"baked"}' \
		http://$(SMOKE_ADDR)/v1/recipe >/dev/null; \
	curl -fsS http://$(SMOKE_ADDR)/v1/stats >/dev/null; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"path":"/tmp/smoke-b.img"}' http://$(SMOKE_ADDR)/admin/reload; echo; \
	curl -fsS http://$(SMOKE_ADDR)/v1/stats | grep -q '"version":2' || \
		{ echo "serve-smoke: stats does not report reloaded snapshot v2" >&2; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' \
		-d '{"phrase":"2 cups all-purpose flour"}' http://$(SMOKE_ADDR)/v1/estimate >/dev/null; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	rm -f /tmp/smoke-a.img /tmp/smoke-b.img; \
	echo "serve-smoke: all routes OK, hot reload v1->v2 OK, SIGTERM drained cleanly"

# Run nutriprofile, dbtool, dbbake and nerlabel end to end: nutriprofile
# -stats on three phrases (its matcher lines print unconditionally),
# nutriprofile -db regional on a phrase only the FAO supplement matches,
# nutriprofile -batch -workers 2 on two recipe files written to a temp
# dir (two recipes on a two-worker pool), dbtool -search, a CSV round
# trip (dbtool -export, then -db csv: must print the same -stats),
# dbtool -stats on a baked image (must print the CRC-32C stored in the
# image header), dbbake from a one-food SR26 release (must print its
# parse report), and a nerlabel save/load round trip (train a
# perceptron, save it, load it back and tag per token). Two saves of
# the same training run must be the same bytes. Each must exit 0. CI
# runs this in the serve-smoke job.
cli-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/nutriprofile" ./cmd/nutriprofile; \
	$(GO) build -o "$$dir/dbtool" ./cmd/dbtool; \
	$(GO) build -o "$$dir/dbbake" ./cmd/dbbake; \
	$(GO) build -o "$$dir/nerlabel" ./cmd/nerlabel; \
	"$$dir/nutriprofile" -stats "2 cups flour" "1 cup sugar" "2 eggs" >"$$dir/stats.txt"; \
	grep -q '^matcher prune:' "$$dir/stats.txt" || \
		{ echo "cli-smoke: nutriprofile -stats printed no matcher prune line" >&2; exit 1; }; \
	printf 'Pancakes\nServes 4\nIngredients:\n1 1/2 cups all-purpose flour\n2 eggs\n1 1/4 cups milk\nInstructions:\nWhisk and fry.\n' >"$$dir/pancakes.txt"; \
	printf 'Garlic Butter\nServes 2\nIngredients:\n1/2 cup butter , softened\n2 cloves garlic , minced\nInstructions:\nMash together.\n' >"$$dir/butter.txt"; \
	"$$dir/nutriprofile" -batch -workers 2 "$$dir/pancakes.txt" "$$dir/butter.txt" >/dev/null; \
	"$$dir/nutriprofile" -db regional "1 cup paneer" | grep -q 'Cheese, paneer' || \
		{ echo "cli-smoke: nutriprofile -db regional did not match paneer" >&2; exit 1; }; \
	"$$dir/dbtool" -search "raw chicken" >/dev/null; \
	"$$dir/dbtool" -export "$$dir/t.csv" 2>/dev/null; \
	"$$dir/dbtool" -stats >"$$dir/seed.stats"; \
	"$$dir/dbtool" -db "csv:$$dir/t.csv" -stats >"$$dir/csv.stats"; \
	cmp "$$dir/seed.stats" "$$dir/csv.stats" || \
		{ echo "cli-smoke: dbtool -db csv: of an -export prints different -stats" >&2; exit 1; }; \
	"$$dir/dbbake" -o "$$dir/t.img" >/dev/null; \
	crc=$$(od -An -tx4 -j16 -N4 "$$dir/t.img" | tr -d ' '); \
	"$$dir/dbtool" -db "$$dir/t.img" -stats | grep -q "^image crc32c: *$$crc$$" || \
		{ echo "cli-smoke: dbtool -db IMAGE -stats did not print the image CRC $$crc" >&2; exit 1; }; \
	mkdir "$$dir/sr"; \
	printf '%s\n' '~01001~^~0100~^~Butter, salted~^~BUTTER~^~~^~~^~~^~~^0^~~^^^^' >"$$dir/sr/FOOD_DES.txt"; \
	printf '%s\n' '~01001~^~208~^717^0^^~4~^~~^~~^~~^^^^^^^~~^~~^~~' >"$$dir/sr/NUT_DATA.txt"; \
	printf '%s\n' '~01001~^~1~^1^~cup~^227^^' >"$$dir/sr/WEIGHT.txt"; \
	"$$dir/dbbake" -db "sr:$$dir/sr" -o "$$dir/sr.img" | grep -q '^parsed .*: 1 foods' || \
		{ echo "cli-smoke: dbbake -db sr: printed no parse report" >&2; exit 1; }; \
	"$$dir/nerlabel" -model trained -corpus 200 -save "$$dir/ner.model" "2 cups flour" >/dev/null; \
	"$$dir/nerlabel" -model trained -corpus 200 -save "$$dir/ner2.model" "2 cups flour" >/dev/null; \
	cmp "$$dir/ner.model" "$$dir/ner2.model" || \
		{ echo "cli-smoke: two nerlabel -save runs wrote different model files" >&2; exit 1; }; \
	"$$dir/nerlabel" -load "$$dir/ner.model" -tokens "2 cups flour" >/dev/null; \
	echo "cli-smoke: nutriprofile -stats/-db regional/-batch, dbtool -search/csv round trip/image -stats, dbbake -db sr: and nerlabel -save/-load OK, saves byte-identical"

# Boot nutriserve and drive a small generated corpus through streaming
# /v1/batch with interactive traffic mixed in, verifying zero lost/torn
# lines, the /metrics counter deltas, and lenient SLO floors. Runs in CI
# on every push; load-bench below is the paper-scale nightly version.
LOAD_ADDR ?= 127.0.0.1:18081
load-smoke:
	@set -e; \
	$(GO) build -o /tmp/nutriserve ./cmd/nutriserve; \
	$(GO) build -o /tmp/loadgen ./cmd/loadgen; \
	/tmp/nutriserve -addr $(LOAD_ADDR) -quiet & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(LOAD_ADDR)/v1/healthz >/dev/null 2>&1; then ok=1; break; fi; sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "load-smoke: server never became healthy" >&2; exit 1; }; \
	/tmp/loadgen -addr http://$(LOAD_ADDR) -recipes 500 -bulk 2 -interactive 4 \
		-slo-p99 2s -min-rps 200 -max-shed-frac 0.5 -metrics-check; \
	/tmp/loadgen -addr http://$(LOAD_ADDR) -recipes 500 -bulk 1 -interactive 4 \
		-zipf 1.1 -min-hit-ratio 0.25 -max-shed-frac 0.5; \
	/tmp/loadgen -addr http://$(LOAD_ADDR) -recipes 500 -bulk 2 -interactive 2 \
		-cold -min-rps 100 -max-shed-frac 0.5; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "load-smoke: OK"

# Nightly sustained-load gate: a larger corpus with production-shaped
# floors. The floors are far below the ~13k recipes/s a single dev core
# sustains so shared-runner noise cannot flake the job; a regression
# that halves throughput still trips them. The server boots with -db on
# a dbbake -db synth:7500 image (8,214 foods, the table nutribench serves),
# so the gate covers the image load path. After the run it prints the
# server's peak RSS (VmHWM) and fails above LOAD_RSS_CEILING_MB: on a
# 2-vCPU VM the server peaked at 34.4-36.1 MB (38.6-40.3 MB while it
# decoded the image into a second copy of the table).
LOAD_RSS_CEILING_MB = 48
load-bench:
	@set -e; \
	$(GO) build -o /tmp/nutriserve ./cmd/nutriserve; \
	$(GO) build -o /tmp/loadgen ./cmd/loadgen; \
	$(GO) build -o /tmp/dbbake ./cmd/dbbake; \
	/tmp/dbbake -db synth:7500 -o /tmp/load-bench.img >/dev/null; \
	/tmp/nutriserve -addr $(LOAD_ADDR) -quiet -db /tmp/load-bench.img & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -fsS http://$(LOAD_ADDR)/v1/healthz >/dev/null 2>&1; then ok=1; break; fi; sleep 0.1; \
	done; \
	[ "$$ok" = 1 ] || { echo "load-bench: server never became healthy" >&2; exit 1; }; \
	/tmp/loadgen -addr http://$(LOAD_ADDR) -recipes 30000 -bulk 4 -interactive 8 \
		-slo-p99 500ms -min-rps 2000 -max-shed-frac 0.2 -metrics-check; \
	hwm_kb=$$(awk '/^VmHWM:/ {print $$2}' /proc/$$pid/status); \
	echo "load-bench: server VmHWM $$hwm_kb kB ($$((hwm_kb / 1024)) MB), ceiling $(LOAD_RSS_CEILING_MB) MB"; \
	if [ "$$hwm_kb" -gt $$(($(LOAD_RSS_CEILING_MB) * 1024)) ]; then \
		echo "load-bench: server peak RSS above $(LOAD_RSS_CEILING_MB) MB" >&2; exit 1; \
	fi; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	rm -f /tmp/load-bench.img; \
	echo "load-bench: OK"

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz
