// Command mbaserve runs the live assignment service: a JSON HTTP API over
// the event-sourced market state.  With -snapshot-dir every mutation is
// journaled into that directory and replayed on restart; without it the
// market lives in memory only.
//
// Usage:
//
//	mbaserve -addr :8080 -categories 30 -solver greedy -snapshot-dir ./data
//	mbaserve -snapshot-dir ./data -snapshot-every 50 -segment-bytes 4194304
//	mbaserve -shards 8 -snapshot-dir ./data -solver incremental
//	mbaserve -snapshot-dir ./data -fsync always
//	mbaserve -follow http://primary:8080 -snapshot-dir ./standby
//	mbaserve -follow http://primary:8080 -snapshot-dir ./standby -auto-takeover
//
// The journal is segmented inside the snapshot dir (journal.<seq>.mbaj,
// CRC32C-framed binary records) and a checkpoint (atomic CRC-checked
// snapshot + journal compaction) is taken every -snapshot-every rounds,
// so restart recovery costs O(state + tail) instead of replaying history
// from genesis.  Submits reach the journal one at a time under the state
// lock, each as one write (+ one fsync under -fsync always); a batch is
// one append.  Legacy .jsonl segments are still recovered
// (the format is sniffed per file) but never appended to; the next event
// starts a fresh .mbaj segment.
//
// A single-file journal from older releases (the retired -journal flag,
// JSONL or binary) becomes a snapshot dir by moving it into place as the
// directory's first segment:
//
//	mkdir data && mv market.jsonl data/journal.00000000000000000001.jsonl
//
// With -shards N each round's solve is split into N partitions (tasks by
// category, workers resident in every partition of their specialties),
// solved concurrently with one solver instance each and merged through the
// cross-partition reconciliation pass.  Storage is unchanged: one state,
// one journal and one snapshot series in -snapshot-dir, so -shards may
// change between restarts, and the API is the same.
//
// Admission control is on by default: every route passes a priority-
// aware admission controller (per-class token buckets keyed by the
// X-MBA-Client header, an adaptive concurrency limit in front of the
// journaled write paths, and brownout shedding of single-event writes
// under sustained overload).  Shed requests get 429 + a jittered
// Retry-After; healthz reports "overloaded" (still 200) while shedding.
// Tune with -max-inflight and -rate-high/-rate-medium/-rate-low, or
// restore the pre-admission semantics with -admission=off.
//
// With -follow the process runs as a replication standby instead: it
// tails the primary's journal stream (GET /v1/journal/stream), persists
// every event into its own -snapshot-dir, and serves GET /v1/healthz
// (reporting replication lag).  A follower that lags past the primary's
// segment retention bootstraps itself from GET /v1/snapshot
// automatically.  Manual takeover is restarting without -follow on the
// same directory; with -auto-takeover the standby instead probes the
// primary's health and, after -probe-failures consecutive failed probes,
// promotes itself in-process — recovering its replicated journal,
// bumping the replication epoch (which fences the old primary: its
// writes die with 409 once it observes the higher epoch), and swapping
// in the full serving API on the same address.
//
// API (see internal/platform.Server):
//
//	POST   /v1/workers      add a worker (market.Worker JSON)
//	DELETE /v1/workers/{id} remove a worker
//	POST   /v1/tasks        post a task (market.Task JSON)
//	DELETE /v1/tasks/{id}   close a task
//	POST   /v1/batch        apply a JSON array of events all-or-nothing
//	GET    /v1/stats        live counts
//	GET    /v1/healthz      journal/replication health (503 when degraded)
//	GET    /v1/journal/stream?from=N  binary event stream for followers
//	GET    /v1/snapshot     newest CRC-framed snapshot (follower resync)
//	POST   /v1/rounds       close an assignment round (?drain=true to close
//	                        assigned tasks afterwards)
//	POST   /v1/checkpoint   take a checkpoint now (snapshot mode only)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/platform"
)

// buildSolver resolves the serving solver from the CLI's robustness
// flags.  -fallback-chain wraps named solvers into a core.Degrader; a
// -round-deadline alone implies the chain "<solver>,greedy" so "bound the
// solve" never silently means "maybe serve nothing".  Called once per
// partition: stateful solvers (incremental duals, degrader reports) must
// not be shared between concurrently solving partitions.
func buildSolver(name, chain string, deadline time.Duration) (core.Solver, error) {
	if chain == "" && deadline > 0 {
		if name == "greedy" {
			chain = name
		} else {
			chain = name + ",greedy"
		}
	}
	if chain == "" {
		return core.ByName(name)
	}
	var stages []core.Solver
	for _, stage := range strings.Split(chain, ",") {
		s, err := core.ByName(strings.TrimSpace(stage))
		if err != nil {
			return nil, err
		}
		stages = append(stages, s)
	}
	return core.NewDegrader(deadline, stages...), nil
}

// runFollower runs the replication-standby mode behind the failover
// supervisor: tail the primary's journal stream into the local snapshot
// dir, serve /v1/healthz (and, with -auto-takeover, promote to a full
// primary on the same address once the primary is declared dead).
// Manual takeover remains restarting without -follow on the directory.
func runFollower(primary, dir, addr string, drainTimeout time.Duration, opts platform.FailoverOptions) {
	fo, err := platform.NewFailover(primary, dir, opts)
	if err != nil {
		log.Fatalf("mbaserve: %v", err)
	}
	log.Printf("mbaserve: following %s from seq %d (auto-takeover %v)",
		primary, fo.Follower().Seq()+1, opts.AutoTakeover)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runDone := make(chan error, 1)
	go func() { runDone <- fo.Run(ctx) }()

	srv := &http.Server{
		Addr:              addr,
		Handler:           fo,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Round closes after a promotion are bounded like a primary's.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Printf("mbaserve following %s, serving on %s\n", primary, addr)

	select {
	case err := <-serveErr:
		log.Fatalf("mbaserve: %v", err)
	case <-ctx.Done():
		log.Printf("mbaserve: signal received, stopping replication")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("mbaserve: shutdown: %v", err)
	}
	if err := <-runDone; err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("mbaserve: failover supervisor: %v", err)
	}
	f := fo.Follower()
	log.Printf("mbaserve: standby shut down cleanly (phase %s, seq %d, lag %d)", fo.Phase(), f.Seq(), f.Lag())
}

// serverOptions assembles the HTTP-layer limits from the admission
// flags.  -admission=off returns the pre-admission options untouched
// (seed semantics: nothing rate-limited, nothing shed).  A rate flag of
// 0 keeps the recommended default; a negative value means unlimited.
func serverOptions(admission bool, maxInflight int, rateHigh, rateMedium, rateLow float64, seed uint64) platform.ServerOptions {
	opts := platform.NewServerOptions()
	if !admission {
		return opts
	}
	adm := platform.NewAdmissionOptions()
	adm.Seed = seed
	if maxInflight > 0 {
		adm.MaxInflight = maxInflight
		if adm.MinInflight > maxInflight {
			adm.MinInflight = maxInflight
		}
	}
	override := func(dst *float64, v float64) {
		switch {
		case v > 0:
			*dst = v
		case v < 0:
			*dst = 0 // 0 in AdmissionOptions = unlimited
		}
	}
	override(&adm.RateHigh, rateHigh)
	override(&adm.RateMedium, rateMedium)
	override(&adm.RateLow, rateLow)
	opts.Admission = adm
	return opts
}

// parseFsync maps the -fsync flag to a journal policy.
func parseFsync(v string) (platform.FsyncPolicy, error) {
	switch v {
	case "never":
		return platform.FsyncNever, nil
	case "always":
		return platform.FsyncAlways, nil
	}
	return 0, fmt.Errorf("bad -fsync %q (want never|always)", v)
}

func parseOnOff(name, v string) (bool, error) {
	switch v {
	case "on", "true":
		return true, nil
	case "off", "false":
		return false, nil
	}
	return false, fmt.Errorf("bad -%s %q (want on|off)", name, v)
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		categories    = flag.Int("categories", 30, "category universe size")
		solverName    = flag.String("solver", "greedy", "assignment algorithm per round")
		lambda        = flag.Float64("lambda", 0.5, "requester-side weight in [0,1]")
		seed          = flag.Uint64("seed", 42, "seed for randomised solvers")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain limit for in-flight requests")
		roundDeadline = flag.Duration("round-deadline", 0, "per-round solve budget; past it the round degrades down the fallback chain (0 disables)")
		fallbackChain = flag.String("fallback-chain", "", "comma-separated degradation chain, best first (e.g. exact,local-search,greedy); empty with -round-deadline implies '<solver>,greedy'")
		fsyncMode     = flag.String("fsync", "never", "journal durability: never (OS page cache) or always (fsync per event)")
		snapshotDir   = flag.String("snapshot-dir", "", "data directory: segmented journal + atomic snapshots, recovered on start (empty keeps the market in memory only)")
		snapshotEvery = flag.Int("snapshot-every", 50, "take a checkpoint every N closed rounds (0 = only via POST /v1/checkpoint)")
		snapshotKeep  = flag.Int("snapshot-keep", 2, "snapshot generations to retain as the corrupt-snapshot fallback chain")
		segmentBytes  = flag.Int64("segment-bytes", platform.DefaultSegmentBytes, "seal a journal segment once it reaches this many bytes")
		numShards     = flag.Int("shards", 1, "split each round's solve into N category partitions solved concurrently (1 = one market)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof debug handlers on this address (empty disables)")
		follow        = flag.String("follow", "", "run as a replication follower of this primary base URL (requires -snapshot-dir)")
		autoTakeover  = flag.Bool("auto-takeover", false, "with -follow: promote to primary automatically once the primary fails -probe-failures consecutive health probes")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "with -follow: primary health-probe cadence")
		probeFailures = flag.Int("probe-failures", 5, "with -follow: consecutive failed probes before takeover")
		admissionMode = flag.String("admission", "on", "priority-aware admission control: on or off (off preserves pre-admission semantics)")
		maxInflight   = flag.Int("max-inflight", 0, "ceiling of the adaptive concurrency limit on journaled writes (0 = recommended default)")
		rateHigh      = flag.Float64("rate-high", 0, "sustained req/s budget for read traffic (0 = recommended default; negative = unlimited)")
		rateMedium    = flag.Float64("rate-medium", 0, "sustained req/s budget for single-event writes (0 = recommended default; negative = unlimited)")
		rateLow       = flag.Float64("rate-low", 0, "sustained req/s budget for batch ingest, round closes and checkpoints (0 = recommended default; negative = unlimited)")
	)
	flag.Parse()
	if *numShards < 1 {
		log.Fatalf("mbaserve: -shards %d < 1", *numShards)
	}
	if *follow != "" {
		if *snapshotDir == "" {
			log.Fatal("mbaserve: -follow needs -snapshot-dir for the replicated journal")
		}
		if *numShards > 1 {
			log.Fatal("mbaserve: -follow is incompatible with -shards")
		}
	}

	fsync, err := parseFsync(*fsyncMode)
	if err != nil {
		log.Fatalf("mbaserve: %v", err)
	}
	admission, err := parseOnOff("admission", *admissionMode)
	if err != nil {
		log.Fatalf("mbaserve: %v", err)
	}
	// Bounded retry absorbs transient write blips (a failed event is
	// rolled back, not half-remembered); fsync policy per the flag.
	logOpts := platform.LogOptions{
		Fsync:        fsync,
		MaxRetries:   3,
		RetryBackoff: 2 * time.Millisecond,
	}
	params := benefit.Params{Lambda: *lambda, Beta: 0.5}
	srvOpts := serverOptions(admission, *maxInflight, *rateHigh, *rateMedium, *rateLow, *seed)

	if *follow != "" {
		solver, err := buildSolver(*solverName, *fallbackChain, *roundDeadline)
		if err != nil {
			log.Fatalf("mbaserve: %v", err)
		}
		runFollower(*follow, *snapshotDir, *addr, *drainTimeout, platform.FailoverOptions{
			Follower: platform.FollowerOptions{
				NumCategories: *categories,
				Segment: platform.SegmentOptions{
					MaxBytes: *segmentBytes,
					Log:      logOpts,
				},
			},
			ProbeInterval: *probeInterval,
			ProbeFailures: *probeFailures,
			AutoTakeover:  *autoTakeover,
			Seed:          *seed,
			Solver:        solver,
			Params:        params,
			Server:        srvOpts,
			// A promoted primary keeps the checkpoint/compaction policy a
			// restarted primary on this directory would have.
			Checkpoint: &platform.CheckpointOptions{
				EveryRounds: *snapshotEvery,
				Keep:        *snapshotKeep,
			},
		})
		return
	}

	if *pprofAddr != "" {
		// The debug endpoint gets its own mux and listener: profiling must
		// never be reachable through the public API address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("mbaserve: pprof debug endpoint on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("mbaserve: pprof: %v", err)
			}
		}()
	}

	// One solver instance per partition: stateful solvers must not be
	// shared between concurrently solving partitions.
	solvers := make([]core.Solver, *numShards)
	for k := range solvers {
		if solvers[k], err = buildSolver(*solverName, *fallbackChain, *roundDeadline); err != nil {
			log.Fatalf("mbaserve: %v", err)
		}
	}
	var (
		state *platform.State
		seg   *platform.SegmentedLog
		cm    *platform.CheckpointManager
	)
	if dir := *snapshotDir; dir != "" {
		// O(state + tail) recovery: newest valid snapshot, then only the
		// journal segments written after it.
		var info *platform.RecoveryInfo
		state, seg, cm, info, err = platform.OpenMarketDir(dir, *categories,
			platform.SegmentOptions{MaxBytes: *segmentBytes, Log: logOpts},
			&platform.CheckpointOptions{EveryRounds: *snapshotEvery, Keep: *snapshotKeep})
		if err != nil {
			log.Fatalf("mbaserve: %v", err)
		}
		for _, p := range info.CorruptSnapshots {
			log.Printf("mbaserve: recovery of %s skipped corrupt snapshot %s", dir, p)
		}
		if info.TailDropped != nil {
			log.Printf("mbaserve: recovery of %s dropped torn journal tail: %v", dir, info.TailDropped)
		}
		w, t := state.Counts()
		log.Printf("recovered %s: %d workers, %d tasks, %d rounds (snapshot seq %d + %d events from %d segments)",
			dir, w, t, state.Rounds(), info.Snapshot.Seq, info.EventsReplayed, info.SegmentsReplayed)
	} else if state, err = platform.NewState(*categories); err != nil {
		log.Fatalf("mbaserve: %v", err)
	}
	svc, err := platform.NewPartitionedService(state, solvers, params, seg, *seed)
	if err != nil {
		log.Fatalf("mbaserve: %v", err)
	}
	svc.SetCheckpointer(cm)

	// Serve with sane timeouts (a stuck client must not pin a connection
	// forever; round closes are bounded by WriteTimeout) and shut down
	// gracefully: on SIGINT/SIGTERM stop accepting, drain in-flight
	// requests — including a round mid-solve — then flush and close the
	// journal so the last accepted mutation is durable before exit.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           platform.NewServerWithOptions(svc, srvOpts),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Printf("mbaserve listening on %s (solver=%s, categories=%d, shards=%d)\n", *addr, *solverName, *categories, *numShards)

	select {
	case err := <-serveErr:
		log.Fatalf("mbaserve: %v", err)
	case <-ctx.Done():
		log.Printf("mbaserve: signal received, draining")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("mbaserve: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("mbaserve: serve: %v", err)
	}
	if cm != nil {
		// A parting checkpoint makes the next start near-instant: recovery
		// loads the snapshot and replays an empty tail.
		if _, err := cm.Checkpoint(); err != nil {
			log.Printf("mbaserve: shutdown checkpoint: %v", err)
		}
	}
	if seg != nil {
		if err := seg.Close(); err != nil {
			log.Printf("mbaserve: journal close: %v", err)
		}
	}
	log.Printf("mbaserve: shut down cleanly")
}
