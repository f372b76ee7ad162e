package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
)

func solverCaps(s core.Solver) [3]bool {
	_, delta := s.(core.DeltaSolver)
	_, ctx := s.(core.ContextSolver)
	_, rep := s.(core.SolveReporter)
	return [3]bool{delta, ctx, rep}
}

func TestSolverWrapperKeepsCapabilities(t *testing.T) {
	for _, name := range []string{"greedy", "incremental", "degrader"} {
		inner, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := traceSolver(inner, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := solverCaps(wrapped), solverCaps(inner); got != want {
			t.Errorf("%s: wrapper capabilities %v, inner %v", name, got, want)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapper named %q", name, wrapped.Name())
		}
	}
}

// ctxOnly has one optional capability of three.
type ctxOnly struct{ core.Greedy }

func (ctxOnly) SolveCtx(context.Context, *core.Problem, *stats.RNG) ([]int, error) { return nil, nil }

func TestSolverWrapperRefusesPartialCapabilities(t *testing.T) {
	if _, err := traceSolver(ctxOnly{}, newTracer()); err == nil {
		t.Fatal("wrapped a solver with only some optional capabilities")
	}
}

func TestBackendAndJournalWrappersKeepCapabilities(t *testing.T) {
	caps := func(b platform.Backend) [5]bool {
		_, batch := b.(platform.BatchSubmitter)
		_, fence := b.(platform.Fenceable)
		_, health := b.(platform.HealthReporter)
		_, stream := b.(platform.JournalStreamer)
		_, snap := b.(platform.SnapshotProvider)
		return [5]bool{batch, fence, health, stream, snap}
	}
	var svc *platform.Service
	if got, want := caps(tracedBackend{}), caps(svc); got != want {
		t.Errorf("backend wrapper capabilities %v, service %v", got, want)
	}
	jcaps := func(j platform.Journal) [2]bool {
		_, batch := j.(platform.BatchJournal)
		_, poison := j.(interface{ Poisoned() bool })
		return [2]bool{batch, poison}
	}
	var seg *platform.SegmentedLog
	if got, want := jcaps(tracedJournal{}), jcaps(seg); got != want {
		t.Errorf("journal wrapper capabilities %v, segmented log %v", got, want)
	}
}
