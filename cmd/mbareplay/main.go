// Command mbareplay replays an event journal (as written by mbaserve or
// generated with -synthesize) into a market state, prints the resulting
// statistics and optionally runs one assignment round over it.  Journals
// are written in the framed binary format (.mbaj); legacy JSONL files are
// still read, the encoding being auto-detected per file, so directories
// mixing both replay transparently.
//
// Replay is crash-tolerant by default: a torn tail (the signature of a
// crash mid-append) is dropped and reported rather than failing the whole
// replay; -strict restores the fail-on-any-defect behaviour.  Pointing
// -journal at a *directory* recovers a checkpointed data dir as mbaserve
// would: newest valid snapshot plus the segment tail.
//
// Usage:
//
//	mbareplay -journal market.jsonl -categories 30 -assign greedy
//	mbareplay -journal ./data -categories 30        # snapshot+segments dir
//	mbareplay -synthesize 500 -categories 30 > trace.mbaj
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/platform"
)

func main() {
	var (
		journal    = flag.String("journal", "", "event journal to replay, binary or legacy JSONL (a file, or a snapshot+segments directory)")
		categories = flag.Int("categories", 30, "category universe size")
		assign     = flag.String("assign", "", "run one assignment round with this algorithm after replay")
		synthesize = flag.Int("synthesize", 0, "instead of replaying, emit a synthetic binary trace of N events to stdout")
		seed       = flag.Uint64("seed", 42, "seed for -synthesize and randomised solvers")
		strict     = flag.Bool("strict", false, "fail on any journal defect instead of recovering the valid prefix")
	)
	flag.Parse()

	if *synthesize > 0 {
		events, err := platform.SyntheticTrace(platform.TraceConfig{
			Market:     market.FreelanceTraceConfig(0, 0),
			Events:     *synthesize,
			RoundEvery: 50,
		}, *seed)
		if err != nil {
			log.Fatalf("mbareplay: %v", err)
		}
		l := platform.NewLog(os.Stdout)
		for _, e := range events {
			if err := l.Append(e); err != nil {
				log.Fatalf("mbareplay: %v", err)
			}
		}
		return
	}

	if *journal == "" {
		log.Fatal("mbareplay: -journal or -synthesize required")
	}
	var state *platform.State
	if fi, err := os.Stat(*journal); err == nil && fi.IsDir() {
		// Checkpoint directory: newest valid snapshot + segment tail.
		var info *platform.RecoveryInfo
		state, info, err = platform.RecoverDir(*journal, *categories)
		if err != nil {
			log.Fatalf("mbareplay: recovering %s: %v", *journal, err)
		}
		if *strict && (len(info.CorruptSnapshots) > 0 || info.TailDropped != nil) {
			log.Fatalf("mbareplay: dir has defects (corrupt snapshots %d, tail: %v) and -strict is set",
				len(info.CorruptSnapshots), info.TailDropped)
		}
		for _, p := range info.CorruptSnapshots {
			log.Printf("mbareplay: skipped corrupt snapshot %s", p)
		}
		if info.TailDropped != nil {
			log.Printf("mbareplay: dropped torn journal tail: %v", info.TailDropped)
		}
		fmt.Printf("recovered dir: snapshot seq %d (+%d events from %d segments)\n",
			info.Snapshot.Seq, info.EventsReplayed, info.SegmentsReplayed)
	} else {
		f, err := os.Open(*journal)
		if err != nil {
			log.Fatalf("mbareplay: %v", err)
		}
		defer f.Close()
		if *strict {
			state, err = platform.ReplayLog(*categories, f)
			if err != nil {
				log.Fatalf("mbareplay: %v", err)
			}
		} else {
			var replayErr, dropped error
			state, replayErr, dropped = platform.RecoverLog(*categories, f)
			if replayErr != nil {
				log.Fatalf("mbareplay: %v", replayErr)
			}
			if dropped != nil {
				log.Printf("mbareplay: journal recovery: %v", dropped)
			}
		}
	}
	workers, tasks := state.Counts()
	fmt.Printf("replayed journal: %d live workers, %d open tasks, %d rounds closed\n",
		workers, tasks, state.Rounds())
	in, _, _ := state.Snapshot()
	s := in.ComputeStats()
	fmt.Printf("snapshot: %d eligible pairs, %d slots, %d capacity, mean pay %.2f\n",
		s.Edges, s.TotalSlots, s.TotalCapacity, s.MeanPayment)

	if *assign != "" {
		solver, err := core.ByName(*assign)
		if err != nil {
			log.Fatalf("mbareplay: %v", err)
		}
		svc, err := platform.NewService(state, solver, benefit.DefaultParams(), nil, *seed)
		if err != nil {
			log.Fatalf("mbareplay: %v", err)
		}
		res, err := svc.CloseRound()
		if err != nil {
			log.Fatalf("mbareplay: %v", err)
		}
		fmt.Printf("assignment round %d: %s\n", res.Round, res.Metrics.String())
	}
}
