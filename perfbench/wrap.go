package main

// Thin timing wrappers around the public entry points of each serving
// layer.  Each wrapper implements exactly the optional interfaces of the
// value it wraps: the server and the service switch behaviour on type
// assertions (a solver that claimed DeltaSolver would make CloseRound take
// SnapshotDelta), so a wrapper that added or hid one would change the
// program under measurement.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
)

// tracedHandler times Server.ServeHTTP: decode, admission, the backend
// call and the response encoding.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	sp := t.tr.beginRemote("http."+routeKind(r.Method, r.URL.Path), parent)
	defer sp.end()
	t.h.ServeHTTP(w, r)
}

// routeKind names the operation a request performs.
func routeKind(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/batch":
		return "batch"
	case method == http.MethodPost && path == "/v1/rounds":
		return "round"
	case method == http.MethodPost && (path == "/v1/workers" || path == "/v1/tasks"),
		method == http.MethodDelete:
		return "submit"
	}
	return "other"
}

// tracedBackend times the service's write and round paths and forwards
// every optional capability *platform.Service has.
type tracedBackend struct {
	svc *platform.Service
	tr  *tracer
}

var _ interface {
	platform.Backend
	platform.BatchSubmitter
	platform.Fenceable
	platform.HealthReporter
	platform.JournalStreamer
	platform.SnapshotProvider
} = tracedBackend{}

func (b tracedBackend) Submit(e platform.Event) (platform.Event, error) {
	sp := b.tr.begin("service.submit", 1)
	defer sp.end()
	return b.svc.Submit(e)
}

func (b tracedBackend) SubmitBatch(events []platform.Event) ([]platform.Event, error) {
	sp := b.tr.begin("service.batch", len(events))
	defer sp.end()
	return b.svc.SubmitBatch(events)
}

func (b tracedBackend) CloseRoundCtx(ctx context.Context) (*platform.RoundResult, error) {
	sp := b.tr.begin("service.round", 0)
	res, err := b.svc.CloseRoundCtx(ctx)
	if res != nil && res.Checkpointed {
		sp.s.Tag = "checkpointed"
	}
	sp.end()
	return res, err
}

func (b tracedBackend) Counts() (int, int)                { return b.svc.Counts() }
func (b tracedBackend) Rounds() int                       { return b.svc.Rounds() }
func (b tracedBackend) CheckpointNow() (any, bool, error) { return b.svc.CheckpointNow() }
func (b tracedBackend) Epoch() uint64                     { return b.svc.Epoch() }
func (b tracedBackend) ObserveEpoch(epoch uint64)         { b.svc.ObserveEpoch(epoch) }
func (b tracedBackend) FenceStatus() (bool, uint64)       { return b.svc.FenceStatus() }
func (b tracedBackend) Health() platform.HealthStatus     { return b.svc.Health() }

func (b tracedBackend) LatestSnapshot() (io.ReadCloser, platform.SnapshotInfo, error) {
	return b.svc.LatestSnapshot()
}

func (b tracedBackend) JournalEventsSince(from uint64) ([]platform.Event, uint64, error) {
	return b.svc.JournalEventsSince(from)
}

// tracedJournal times appends to the segmented log: the group-commit
// wait, the write and the fsync.
type tracedJournal struct {
	seg *platform.SegmentedLog
	tr  *tracer
}

var _ platform.BatchJournal = tracedJournal{}

func (j tracedJournal) Append(e platform.Event) error {
	sp := j.tr.begin("journal.append", 1)
	defer sp.end()
	return j.seg.Append(e)
}

func (j tracedJournal) AppendBatch(events []platform.Event) error {
	sp := j.tr.begin("journal.append_batch", len(events))
	defer sp.end()
	return j.seg.AppendBatch(events)
}

// Poisoned keeps healthz's journal verdict visible through the wrapper.
func (j tracedJournal) Poisoned() bool { return j.seg.Poisoned() }

// tracedSolver times a plain core.Solver.
type tracedSolver struct {
	inner core.Solver
	tr    *tracer
}

func (s tracedSolver) Name() string { return s.inner.Name() }

func (s tracedSolver) Solve(p *core.Problem, r *stats.RNG) ([]int, error) {
	sp := s.tr.begin("solve", 0)
	defer sp.end()
	return s.inner.Solve(p, r)
}

// deltaSolver is the full capability set of a delta-aware solver.
type deltaSolver interface {
	core.DeltaSolver
	core.ContextSolver
	core.SolveReporter
}

// tracedDeltaSolver times a solver that has every optional capability.
type tracedDeltaSolver struct {
	tracedSolver
	full deltaSolver
}

func (s tracedDeltaSolver) SolveCtx(ctx context.Context, p *core.Problem, r *stats.RNG) ([]int, error) {
	sp := s.tr.begin("solve", 0)
	defer sp.end()
	return s.full.SolveCtx(ctx, p, r)
}

func (s tracedDeltaSolver) SolveDeltaCtx(ctx context.Context, p *core.Problem, d *core.Delta, r *stats.RNG) ([]int, error) {
	sp := s.tr.begin("solve", 0)
	sp.s.Tag = "delta"
	defer sp.end()
	return s.full.SolveDeltaCtx(ctx, p, d, r)
}

func (s tracedDeltaSolver) LastReport() core.SolveReport { return s.full.LastReport() }

// traceSolver wraps s in the wrapper with exactly s's capabilities.  A
// solver with only some of them has no matching wrapper and is refused.
func traceSolver(s core.Solver, tr *tracer) (core.Solver, error) {
	_, delta := s.(core.DeltaSolver)
	_, ctx := s.(core.ContextSolver)
	_, rep := s.(core.SolveReporter)
	switch {
	case !delta && !ctx && !rep:
		return tracedSolver{inner: s, tr: tr}, nil
	case delta && ctx && rep:
		return tracedDeltaSolver{tracedSolver{inner: s, tr: tr}, s.(deltaSolver)}, nil
	}
	return nil, fmt.Errorf("no tracing wrapper for solver %s (delta %v, ctx %v, report %v)", s.Name(), delta, ctx, rep)
}
