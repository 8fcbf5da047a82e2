GO ?= go

.PHONY: build test vet race bench bench-all loc chaos wire coord replay record-corpus latency scale figures reach verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector with shuffled test
# order; the parallel figure sweeps must stay clean here and no test may
# depend on package-level ordering.
race:
	$(GO) test -race -shuffle=on ./...

# bench runs the repo benchmark (BENCHMARK.json): the four bench/run.sh
# workloads, 20 s each, one JSON line of end-to-end and per-layer metrics per
# workload. bench/README.md has the protocol for a before/after claim
# (paired runs, `bench compare`).
bench:
	for w in live-steady live-churn sim-figures sim-scale; do \
		bash bench/run.sh --workload $$w --seed 2026 --seconds 20 --trace 0 || exit 1; \
	done

# bench-all runs the full per-figure benchmark suite.
bench-all:
	$(GO) test -run XXX -bench . -benchmem .

# loc prints the tracked size of the codebase: non-test Go lines outside
# bench/. Record it per PR in CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l

# chaos is the resilience smoke: the fault and health suites under the
# race detector, a seeded chaos sim whose -report reconciles both the
# segment ledger and the fault orphan ledger, the figdetect sweep whose
# -report additionally reconciles the heartbeat detection ledger, a
# figrecovery + figscale run whose one orphan ledger holds the scaling run's
# kills and orphans beside the timeline's (each run fails if any ledger is
# unbalanced), and the scaling run under the race detector — its engine
# goroutine moving the fog while four workers simulate.
chaos:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/health/
	$(GO) run ./cmd/cloudfog-sim -figures figchurn,figrecovery \
		-faults examples/chaos/profile.json \
		-players 1500 -supernodes 100 -horizon 10s \
		-report chaos_report.json
	$(GO) run ./cmd/cloudfog-sim -figures figdetect \
		-players 1500 -supernodes 100 \
		-report detect_report.json
	$(GO) run ./cmd/cloudfog-sim -figures figrecovery,figscale \
		-players 1500 -supernodes 100 -horizon 30s -detector phi -overload \
		-report chaos_report.json
	$(GO) run -race ./cmd/cloudfog-sim -scale \
		-players 1500 -supernodes 100 -shards 4 \
		-horizon 30s -epoch 10s -detector phi -overload

# wire is the zero-copy wire-path smoke: the live and proto suites and the
# cloudfog-live command's tests under the race detector
# (TestLinkBatchesUnderSaturation fails unless the coalescing counters prove
# frames were actually batched; TestDemoLedgerUnderTotalOutage runs the demo
# with every supernode partitioned away and fails unless both players end on
# the cloud and the ledger counts updates and direct video), and a
# UDP-transport live run under the default chaos profile, which exits
# non-zero if any player session fails.
wire:
	$(GO) test -race -count=1 ./internal/live/ ./internal/proto/ ./cmd/cloudfog-live/
	$(GO) run ./cmd/cloudfog-live -players 4 -supernodes 3 -duration 5s \
		-transport udp -chaos default

# replay is the flight-recorder regression gate: the committed corpus
# recordings must replay bit-identically (figure bytes, observability
# deltas, RNG draw counts) with balanced ledgers, the chaos recording
# must also verify from its figrecovery checkpoint alone, and the canonical
# counterfactual — swapping the chaos incident's timeout detector for
# phi-accrual — must produce a non-empty, ledger-reconciled QoE diff.
# Any byte or ledger divergence fails the target.
replay:
	$(GO) test -race -count=1 ./internal/flight/
	$(GO) run -race ./cmd/cloudfog-replay examples/flight/chaos.flight
	$(GO) run -race ./cmd/cloudfog-replay examples/flight/sharded.flight
	$(GO) run -race ./cmd/cloudfog-replay -from figrecovery examples/flight/chaos.flight
	$(GO) run -race ./cmd/cloudfog-replay -whatif detector=phi -expect-diff \
		examples/flight/chaos.flight

# record-corpus regenerates the committed corpus recordings. Run it only
# when an intentional determinism-contract change invalidates them — the
# diff then shows exactly which figures moved.
record-corpus:
	$(GO) run ./cmd/cloudfog-sim -figures figchurn,figrecovery \
		-players 400 -supernodes 25 -datacenters 3 -horizon 60s \
		-detector timeout -overload \
		-faults examples/flight/profile.json \
		-record examples/flight/chaos.flight
	$(GO) run ./cmd/cloudfog-sim -figures figscale \
		-players 400 -supernodes 25 -datacenters 3 -horizon 90s \
		-shards 4 -detector phi -overload \
		-record examples/flight/sharded.flight

# coord is the control-plane gate. First the passive placer, lease and
# ticket tests twenty times over (milliseconds each): the placer promises to
# be a function of its inputs, so a dependence on map order fails here
# outright instead of flaking once in a while. Then the whole coordinator
# suite under the race detector — placement, the churn property test, the
# UDP-stream worker registering over TCP, and the three multi-process tests
# on real worker processes: SIGKILL mid-stream (every stranded session
# re-placed within the detector Bound()), SIGTERM drain with leases on
# (make-before-break handoffs, zero visible interruptions) and a coordinator
# partition — each of which fails unless the session ledger reconciles.
coord:
	$(GO) test -race -count=20 -run 'Placer|Lease|Ticket|Renewal' ./internal/coord/
	$(GO) test -race -count=1 ./internal/coord/

# latency puts the response-path number one command away: the frame-clock
# and first-frame tests uncached, then the repo benchmark's live-steady
# workload (BENCHMARK.json), whose op_ms is action-to-frame response latency
# with no network. Only the run is wired here, not `cd bench && go test`:
# bench/probe asserts a stamp reaches the stream after an observer beside
# the supernode, which rendering on the delta's arrival turns into a race
# between two sockets (DESIGN.md §17).
latency:
	$(GO) test -count=1 -run 'FrameClock|FramesFollowUpdates|FirstFrameAtJoin' ./internal/live/
	bash bench/run.sh --workload live-steady --seed 2026 --seconds 20 --trace 0

# scale is the sim-side twin of latency: the placement and scale-path property
# tests uncached (the indexed shortlist against the scan-and-sort oracle; the
# shortlist-, relief-index, registration-order and member-list invariants and
# Supernodes() against a plain slice after every operation of the random-ops,
# storm and fleet-wide-failure tests; the member lists' swap-remove cases and
# what a warm join allocates; the one limit a probe is held to; the 120-byte
# player; the scaling run's golden and its bytes-allocated-per-player ceiling;
# a world clone's allocation count, flat in the population; the grid's sorted k-best
# against brute force, its tie-break on ID, accept asked about entrants only,
# the reused buffer, and the retune contracts; the latency model's resolved-endpoint and Within properties
# and its OneWay golden; the population golden; the two-pass node sample
# against its one-pass reference, the kill read-ahead and the runner's clock;
# the event engine — the one this run's heartbeats and ticks are
# queued on — against its container/heap reference, its stale-handle and
# lazy-cancel contracts and its zero-allocation floors; the phi detector's early
# answer against Phi itself and the monitor's allocation floors — sim-scale is
# the one workload that runs that detector; the baselines, which share the
# datacenter member list; the Cloud baseline's attachments — a fog with no
# supernodes — pinned by digest in join order), then a 200 000-player
# cloudfog-sim -scale run at 1 and at 8 shards, whose output must be the same
# bytes once what describes the run and not the result is masked (the shard
# count, the timing and memory fields, live bytes per player among them), then
# the repo benchmark's sim-scale workload, whose op_ms is the
# wall time of one 50 000-player scaling run. run.sh builds bench/ against
# this tree — bench is its own module, so an API break there is invisible to
# `go build ./...` — and the run fails if the pinned figure hash moves.
SCALE_SMOKE = -scale -players 200000 -supernodes 12500 -detector phi -overload -horizon 20s -epoch 10s
scale:
	$(GO) test -count=1 -run 'Shortlist|FogInvariants|Storm|Supernodes|Relief|Reindex|[Pp]robe|Membership|WarmJoin|PlayerLayout' ./internal/core/
	$(GO) test -count=1 -run 'ScaleRunGolden|AllocBudget|AliasedNodeIDs|CloneAllocs|CloudAttachGolden' ./internal/experiment/
	$(GO) test -count=1 ./internal/spatial/ ./internal/trace/ ./internal/workload/ ./internal/shard/ ./internal/sim/ ./internal/health/ ./internal/baseline/
	mkdir -p .bench_build
	for s in 1 8; do \
		$(GO) run ./cmd/cloudfog-sim $(SCALE_SMOKE) -shards $$s > .bench_build/scale-$$s.raw || exit 1; \
		sed -E -e 's/(shards|wall|world|mem|live_per_player)=[^ ]+//g' .bench_build/scale-$$s.raw > .bench_build/scale-$$s.txt; \
	done
	diff .bench_build/scale-1.txt .bench_build/scale-8.txt
	bash bench/run.sh --workload sim-scale --seed 2026 --seconds 20 --trace 0

# figures is the QoE-side twin of latency and scale: the node simulation's
# order tests uncached (the golden digest over 240 runs and the forced-tie
# digest, both recorded on the event-engine-backed simulation, and the bound
# on what a player holds in flight), one pool driven through unlike runs
# against fresh simulations, the two allocation floors, the block-ahead
# frame-size draw against one draw per segment and the level a stream's
# serving state starts at under every cap; the sender buffer
# (estimators by stream index), stream (EncodeInto over a dirty segment) and
# sim (a re-seeded generator against a fresh one) suites; what a warm groupRun
# allocates on the world's pools, its bytes at any worker count, and that a
# clone shares none of it; then the repo benchmark's sim-figures workload,
# whose op_ms is the wall time of Figures 9(a), 10(a) and 11(a) on the
# quarter-scale world. The run builds bench/ against this tree and fails if
# the pinned figure hash moves.
figures:
	$(GO) test -count=1 -run 'Golden|Ties|InFlight|Pool|AllocFloor|SizeJitter|StreamInit' ./internal/qoe/
	$(GO) test -count=1 ./internal/sched/ ./internal/stream/ ./internal/sim/
	$(GO) test -count=1 -run 'GroupRun|CloneIsolation' ./internal/experiment/
	bash bench/run.sh --workload sim-figures --seed 2026 --seconds 20 --trace 0

# reach measures which functions of cloudfog/internal/... the product ever
# enters, so a deletion pass starts from traffic instead of guesses: every
# binary under cmd/ and bench/ built with -cover -coverpkg=cloudfog/... into
# .reach/, driven through the invocations the targets above, the verify skill
# and the README recipes use (including a cloud + coordinator + three workers
# + four players role deployment with a SIGTERM drain and a SIGKILL),
# counters merged, the never-entered functions and the statement total
# printed. The examples/ walkthroughs are built plain and run (one that exits
# non-zero fails it) but count for nothing. Not a coverage gate, and at ~4 min
# not part of verify, but it has two hard checks: it fails if an internal
# package is linked by no cmd/ or bench/ binary, and if the never-entered
# list is not exactly
# scripts/reach-allow.txt — a new name is new dead code, a missing one is now
# entered or gone. DESIGN.md §18 gives every name on the list its reason.
reach:
	bash scripts/reach.sh

# verify is the CI gate: static checks, the race-enabled suite, the chaos
# smoke, the wire smoke, the coordinator suite (kill, drain, partition),
# the flight-recorder replay gate, the response-latency run, the
# placement-scale run, and the QoE-figures run.
verify: vet race chaos wire coord replay latency scale figures
