# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the gate every PR must pass.

GO ?= go

.PHONY: all build test race lint fmt-check examples fuzz crash-sweep bench fleet docker clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = gofmt, the stock vet suite plus ceresvet, the repo-invariant
# analyzers (atomic writes through the fsatomic seam, context flow, map
# determinism, lock safety, allocfree contracts, goroutines only in
# internal/par — see DESIGN.md §9). Any diagnostic fails the build.
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/ceresvet ./...

# Every .go file must be gofmt-clean; the analyzers' testdata fixtures
# are exempt (their comment layout is what they test).
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Every program under examples/ must run to completion: they are the
# public API's only callers outside cmd/, and nothing else executes them.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# Native fuzzing, long budget per target; CI's fuzz job runs this target
# at FUZZTIME=10s, so this is the one list. Four hold hand-written JSON
# code to encoding/json: the extract-request reader on every body
# (accept/reject, every decoded value, no panic — DESIGN.md §7), the
# extract-response encoder on every string, float and int (the same
# bytes, an error iff it has one — §7), the triple line decoder on every
# line and the triple/fact encoder on every string and float bit pattern
# (DESIGN.md §8). The fifth holds the HTML lexer's two consumers to each
# other: the stream pass's records against Parse's tree on every page
# (DESIGN.md §5). The sixth holds the serve engine's context cache to
# having no say in the output: a page through a scratch that has served
# the site and through a fresh one scores and extracts alike (DESIGN.md
# §5). The seventh is the model file, the bytes PUT
# /v1/sites/{site}/model takes from the network: no input panics, an
# accepted one re-encodes to an equal state, serves or refuses without
# panicking, and decodes to no more than a fixed multiple of its size
# (DESIGN.md §10). The eighth is the page store's read plane over a
# fuzzed site.json and segment: no panic, and a read either fails or
# delivers exactly the records a reference framer parses (DESIGN.md §8).
# The ninth is the harvest's checkpoint.json: no panic, and an accepted
# manifest never counts a site's shards done while one is not (DESIGN.md
# §8). The tenth is a model store's training verdict, untrainable.json:
# no bytes make Untrainable panic or fail, it answers only for the key the
# bytes decode to, and a marked verdict reads back under its key alone
# (DESIGN.md §7). The eleventh is the fusion accumulator: on any
# observation stream, at every Facts call, its facts are byte for byte
# those of the string-keyed accumulator it replaced, frozen in its tests
# (DESIGN.md §8). The twelfth is the fit's objective: on any collapsed
# training set, K from 2 to 12, the one-pass lossGrad's loss and gradient,
# scored and scattered in register blocks, are bit for bit those of the
# unblocked row-major kernel frozen in its tests (DESIGN.md §3). The
# thirteenth is the seed KB, kb.tsv, operator input every harvest reads: no
# bytes make kb.Read panic, a KB it accepts writes bytes that read back to
# the same bytes and Digest, and kb.DigestTSV, which a harvest runs in its
# place, gives Read's verdict and error on every input and, on one Read
# accepts, the Digest of the KB Read builds (DESIGN.md §8). The fourteenth holds the
# extract handler, which extracts pages while it is still decoding the
# body, to the decode-first path kept in its tests: on every body the same
# status and response body (DESIGN.md §7). The fifteenth holds VERTEX++,
# which learns and extracts on the stream pass, to the tree-based wrapper
# inducer frozen in its tests: on any page with its first k fields
# labelled, the same rules and the same extractions (DESIGN.md §5). The
# sixteenth trains a small movie site whose every page carries the fuzzed
# bytes: no panic, training twice writes the same model bytes, a written
# model reads back to the same bytes and extractions, and a site that
# cannot train is ErrNoAnnotations, never a model with no trained cluster
# (DESIGN.md §3, §10). The seventeenth is the Hessian–vector product the
# fit's Newton solver takes at every conjugate-gradient step: on any small
# collapsed training set, K from 2 to 16, the product, scored and
# scattered in register blocks, is within 1e-12 of the unblocked row-major
# one frozen in its tests and within 1e-6 of a central difference of the
# objective's gradient (DESIGN.md §3). The seventh, the fourteenth, the fifteenth and the
# sixteenth stream, serve or train pages on every try, so they minimise a
# new input for at most 1s: at the default 60s one minimisation takes most
# of a short run's budget, at 0 execs/s. A failing input is written under
# the package's testdata/fuzz/ — commit it.
FUZZTIME ?= 5m
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzExtractRequest -fuzztime=$(FUZZTIME) ./cmd/ceres-serve
	$(GO) test -run='^$$' -fuzz=FuzzExtractResponse -fuzztime=$(FUZZTIME) ./cmd/ceres-serve
	$(GO) test -run='^$$' -fuzz=FuzzTripleLine -fuzztime=$(FUZZTIME) ./internal/jsonl
	$(GO) test -run='^$$' -fuzz=FuzzAppendTriple -fuzztime=$(FUZZTIME) ./internal/jsonl
	$(GO) test -run='^$$' -fuzz=FuzzStreamMatchesDOM -fuzztime=$(FUZZTIME) ./internal/dom
	$(GO) test -run='^$$' -fuzz=FuzzExtractWarmCold -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadSiteModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -run='^$$' -fuzz=FuzzPagestoreRead -fuzztime=$(FUZZTIME) ./pagestore
	$(GO) test -run='^$$' -fuzz=FuzzLoadCheckpoint -fuzztime=$(FUZZTIME) ./batch
	$(GO) test -run='^$$' -fuzz=FuzzUntrainable -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzAccumulator -fuzztime=$(FUZZTIME) ./internal/fusion
	$(GO) test -run='^$$' -fuzz=FuzzLossGrad -fuzztime=$(FUZZTIME) ./internal/mlr
	$(GO) test -run='^$$' -fuzz=FuzzReadKB -fuzztime=$(FUZZTIME) ./internal/kb
	$(GO) test -run='^$$' -fuzz=FuzzExtractHandler -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./cmd/ceres-serve
	$(GO) test -run='^$$' -fuzz=FuzzVertexMatchesTree -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/vertex
	$(GO) test -run='^$$' -fuzz=FuzzTrainSite -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s .
	$(GO) test -run='^$$' -fuzz=FuzzHessVec -fuzztime=$(FUZZTIME) ./internal/mlr

# The durable path's proofs, under the race detector: the crash-point
# sweep (every filesystem operation of a warm harvest, every models/
# operation of a cold one and every removal a -reset makes in its trash is
# a power cut the next invocation must recover from byte-identically —
# `go test -short` takes every fifth), the
# operation-order check and the commit stage's kill, error and bound
# tests (DESIGN.md §8).
crash-sweep:
	$(GO) test -race -count=1 -run 'TestCrashSweep|TestHarvestSweepsOwnTemps' ./cmd/ceres-batch
	$(GO) test -race -count=1 -run 'TestDurableBeforeNamed|TestCheckpointResumeByteIdentical|TestCommit|TestCheckpointReaders' ./batch
	$(GO) test -race -count=1 ./internal/fsatomic/...

# Headline benchmarks, human-readable, each once or a fixed few times:
# a smoke run (CI's bench-smoke job is this target), so a change that
# breaks one or makes its allocations explode shows in the output. -short
# skips the 10k-model RegistryBoot/scale layout, too slow for that.
# Root package: ServeExtract, ServiceExtract and StreamServe are the serve
# engine — the stream pass over a trained site model (DESIGN.md §5) —
# Featurize its featurizer, StageTopicIdentification and StageAnnotate
# the annotation path (§6), at the pool's size and at one worker, StageParse,
# StageTrain and EndToEndSite (with mlr's Fit) the training side: one
# page's parse and field enumeration (its B/op is what a prepared page
# holds, so a regression in training memory shows), one site's
# example-building plus fit, the whole train-then-extract pipeline, and
# one trust-region Newton fit over collapsed rows at the shape measured on
# the crawl (§3); RegistryBoot is the binary model codec's cold boot (§10); ReadKB
# is the parse of the crawl's seed KB, kb.tsv, with live-MB the heap the
# parsed KB holds (a rise means insert-time tables are back), KBDigest
# the digest every harvest takes of the same text in place of a parse
# (tens of allocations: a rise into the thousands means it builds a KB or
# copies its lines again), and
# KBBuildIndex the annotation index built from that KB, with live-MB the
# heap the index holds once the KB is gone — what a harvest holds while it
# trains (a rise means the index pins the KB's strings again, or keeps a
# slice or a string per key; §6, §8).
# internal/dom: ParseDetailPage and StreamDetailPage are the HTML lexer
# under each of its two consumers, StreamChromePage the stream pass over
# a page that is mostly stylesheet, script and one unbroken data island
# (the stream pass must read 0 allocs/op). internal/core: ScoreFields is
# what the serve engine does per field after the stream pass, in ns/field
# — hit with every context in the cache (the daemon's steady state; must
# read 0 allocs/op), miss with the cache emptied before every page.
# batch: BatchHarvest is the sharded batch loop end to end (pages/s over a
# scaled crawl, §8) — in memory (Collect), on the durable path ceres-batch
# runs (JSONL: shard files, commit stage, replay; manifest-writes/op and
# fsyncs/op must stay well under one and four per shard, so a change that
# goes back to one manifest per shard shows) and cold (Cold: the same path
# with every site trained in the pass at two workers;
# peak-sites-training/op below 2 means workers queue behind a training
# again, peak-sites-holding-pages/op above 1 means the prepare gate no
# longer bounds training memory); ReplayFuse is the fusion stage alone.
# internal/jsonl: AppendTriple/DecodeTriple are the codec under the shard
# files (MB/s; encode must read 0 allocs/op), String the in-place unescape
# under both the codec and the daemon's request reader (a
# serve-bulk-shaped body and one shard line; 0 allocs/op). pagestore:
# PagestoreScan is the concurrent segment read plane (§10).
# cmd/ceres-serve: HandleExtract is the daemon's wire layer — request
# read, Service, response encode — in request MB/s, pages/s, B/op and
# allocs/op (§7); at 16x32KB its pages/s shows the extraction that runs
# while the body is still being decoded, and 1x4KB must not allocate more
# than a request that never overlaps.
bench:
	$(GO) test -short -run='^$$' -bench='ServeExtract|ServiceExtract|StreamServe|StageTopicIdentification|StageAnnotate|StageParse|StageTrain|EndToEndSite|RegistryBoot|ReadKB|KBDigest|KBBuildIndex' -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='DetailPage|ChromePage' -benchtime=100x -benchmem ./internal/dom
	$(GO) test -run='^$$' -bench='ScoreFields|Featurize' -benchtime=100x -benchmem ./internal/core
	$(GO) test -run='^$$' -bench='Fit' -benchtime=1x -benchmem ./internal/mlr
	$(GO) test -run='^$$' -bench='BatchHarvest|ReplayFuse' -benchtime=1x -benchmem ./batch
	$(GO) test -run='^$$' -bench='AppendTriple|DecodeTriple|String' -benchtime=100x -benchmem ./internal/jsonl
	$(GO) test -run='^$$' -bench='PagestoreScan' -benchtime=1x -benchmem ./pagestore
	$(GO) test -run='^$$' -bench='HandleExtract' -benchtime=20x -benchmem ./cmd/ceres-serve

# Fleet e2e: build the daemon, stand up REPLICAS of it behind the
# round-robin harness, roll a model publish mid-load and require zero
# dropped or misrouted requests plus convergence on every replica's
# /metrics (DESIGN.md §12).
REPLICAS ?= 2
fleet:
	$(GO) build -o bin/ceres-serve ./cmd/ceres-serve
	$(GO) run ./cmd/ceres-fleet -serve-bin bin/ceres-serve -replicas $(REPLICAS)

# Container image for the serving daemon (see docker-compose.yml for a
# two-replica fleet sharing one model volume).
docker:
	docker build -t ceres-serve .

clean:
	$(GO) clean ./...
	rm -rf bin
