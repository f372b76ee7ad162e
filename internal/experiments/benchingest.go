package experiments

// The "ingest" suite: sustained journaled event throughput through the
// platform write path, across the batching strategies of the binary
// journal.  Three pipelines:
//
//   - "binary-single":  one caller appending one event at a time — the
//     per-event baseline.
//   - "binary-group-parallel": GOMAXPROCS goroutines appending binary
//     records concurrently — the journal coalesces their flushes, so this
//     is the fsync-amortisation win for concurrent writers.
//   - "binary-batch100": the POST /v1/batch backend path, 100 events per
//     all-or-nothing SubmitBatch — one journal append and one fsync per
//     hundred events.
//   - "http-batch100" (FsyncNever only): the same batches as JSON bodies
//     through Server.ServeHTTP with the recommended ServerOptions — body
//     read, schema decode, SubmitBatch and the rendered ack.  The client
//     side (json.Marshal of the batch, the request, reading the ack back
//     for the churn's IDs) runs off the clock.
//
// Every other pipeline runs under FsyncNever and FsyncAlways; ns/op is
// per *event* in all entries (events/sec = 1e9 / ns_per_op), so the
// FsyncAlways rows are directly comparable.  Checked in as
// BENCH_ingest.json and gated by `mbabench -benchdiff` like the other
// suites.
//
// The workload is bounded churn, not unbounded growth: after an off-clock
// seeding phase the event stream cycles join → post → leave-oldest →
// close-oldest, so the live market keeps a constant size no matter how
// many iterations the benchmark settles on, and removals always name
// entities whose IDs a previous (already journaled) event assigned.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/platform"
)

// ingestSeedPool is how many workers and tasks the off-clock seeding
// phase creates: large enough that batch-mode removals (≤25 per batch of
// 100) never drain the pool before the batch's own joins refill it.
const ingestSeedPool = 256

// ingestScale tags the suite's entries; the workload is a stream, not a
// fixed market, so the conventional workers/tasks columns record the
// steady-state pool size.
func ingestScale() BenchScale {
	return BenchScale{Name: "stream", Workers: ingestSeedPool, Tasks: ingestSeedPool}
}

// ingestChurn generates the bounded-churn event stream.  Removals pop the
// oldest live ID; push is called with the IDs the platform assigned so
// prediction never enters into it.
type ingestChurn struct {
	templates *market.Instance
	i         int
	workers   []int // FIFO of live worker IDs
	tasks     []int // FIFO of live task IDs
}

func newIngestChurn(seed uint64) (*ingestChurn, error) {
	in, err := market.Generate(market.FreelanceTraceConfig(ingestSeedPool, ingestSeedPool), seed)
	if err != nil {
		return nil, err
	}
	return &ingestChurn{templates: in}, nil
}

func (c *ingestChurn) worker() market.Worker {
	w := c.templates.Workers[c.i%len(c.templates.Workers)]
	w.ID = 0 // platform-assigned
	return w
}

func (c *ingestChurn) task() market.Task {
	t := c.templates.Tasks[c.i%len(c.templates.Tasks)]
	t.ID = 0
	return t
}

// next returns the next event of the cycle.  It must be paired with
// absorb() on the applied result so the FIFOs track real IDs.
func (c *ingestChurn) next() platform.Event {
	defer func() { c.i++ }()
	switch c.i % 4 {
	case 0:
		return platform.NewWorkerJoined(c.worker())
	case 1:
		return platform.NewTaskPosted(c.task())
	case 2:
		id := c.workers[0]
		c.workers = c.workers[1:]
		return platform.NewWorkerLeft(id)
	default:
		id := c.tasks[0]
		c.tasks = c.tasks[1:]
		return platform.NewTaskClosed(id)
	}
}

// absorb records the IDs the platform assigned to applied add events.
func (c *ingestChurn) absorb(applied []platform.Event) {
	for i := range applied {
		switch {
		case applied[i].Worker != nil:
			c.workers = append(c.workers, applied[i].Worker.ID)
		case applied[i].Task != nil:
			c.tasks = append(c.tasks, applied[i].Task.ID)
		}
	}
}

// absorbAck records the IDs a POST /v1/batch ack reports for add events.
func (c *ingestChurn) absorbAck(items []platform.BatchItem) {
	for _, it := range items {
		switch it.Kind {
		case platform.EventWorkerJoined:
			c.workers = append(c.workers, it.ID)
		case platform.EventTaskPosted:
			c.tasks = append(c.tasks, it.ID)
		}
	}
}

// newIngestService opens a segmented journal in its own temp directory
// and seeds the churn pool off-clock.
func newIngestService(cfg BenchConfig, opts platform.LogOptions) (*platform.Service, *ingestChurn, func(), error) {
	dir, err := os.MkdirTemp("", "mba-ingest-*")
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	sl, err := platform.OpenSegmentedLog(dir, platform.SegmentOptions{
		MaxBytes: 64 << 20,
		Log:      opts,
	})
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	state, err := platform.NewState(sampleCategories(cfg))
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	svc, err := platform.NewService(state, core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}},
		benefit.DefaultParams(), sl, cfg.Seed)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	churn, err := newIngestChurn(cfg.Seed)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	closer := func() {
		sl.Close()
		cleanup()
	}
	// Seed the removal pool so the churn cycle can never underflow.
	var batch []platform.Event
	for i := 0; i < ingestSeedPool; i++ {
		batch = append(batch, platform.NewWorkerJoined(churn.worker()), platform.NewTaskPosted(churn.task()))
	}
	applied, err := svc.SubmitBatch(batch)
	if err != nil {
		closer()
		return nil, nil, nil, err
	}
	churn.absorb(applied)
	return svc, churn, closer, nil
}

// sampleCategories reads the category universe off the generated
// workload so state and templates always agree.
func sampleCategories(cfg BenchConfig) int {
	in, err := market.Generate(market.FreelanceTraceConfig(8, 8), cfg.Seed)
	if err != nil {
		return 8
	}
	return in.NumCategories
}

// runIngestSuite measures the three ingestion pipelines under both fsync
// policies.  Per-event ns/op everywhere.
func runIngestSuite(log io.Writer, cfg BenchConfig, rep *BenchReport) error {
	sc := ingestScale()
	fsyncs := []struct {
		name   string
		policy platform.FsyncPolicy
	}{
		{"fsync-never", platform.FsyncNever},
		{"fsync-always", platform.FsyncAlways},
	}
	modes := []struct {
		name  string
		batch int
	}{
		{"binary-single", 1},
		{"binary-batch100", 100},
	}
	for _, fs := range fsyncs {
		add := benchAdder(log, rep, "ingest", sc, 0)
		for _, m := range modes {
			opts := platform.LogOptions{Fsync: fs.policy}
			svc, churn, closer, err := newIngestService(cfg, opts)
			if err != nil {
				return err
			}
			name := m.name + "/" + fs.name
			var benchErr error
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				if m.batch <= 1 {
					for i := 0; i < b.N; i++ {
						applied, err := svc.Submit(churn.next())
						if err != nil {
							benchErr = err
							b.Fatal(err)
						}
						churn.absorb([]platform.Event{applied})
					}
					return
				}
				pending := make([]platform.Event, 0, m.batch)
				flush := func() {
					applied, err := svc.SubmitBatch(pending)
					if err != nil {
						benchErr = err
						b.Fatal(err)
					}
					churn.absorb(applied)
					pending = pending[:0]
				}
				for i := 0; i < b.N; i++ {
					pending = append(pending, churn.next())
					if len(pending) == m.batch {
						flush()
					}
				}
				if len(pending) > 0 {
					flush()
				}
			})
			closer()
			if benchErr != nil {
				return fmt.Errorf("experiments: ingest %s: %w", name, benchErr)
			}
			add(name, br)
		}

		// Concurrent appenders against the journal itself: the Log folds
		// concurrent writers into shared flushes, which is where group
		// commit (as opposed to batching) pays off.  Pinned to
		// 8 appender goroutines per processor so the entry measures
		// coalescing even on single-CPU runners.
		dir, err := os.MkdirTemp("", "mba-ingest-*")
		if err != nil {
			return err
		}
		sl, err := platform.OpenSegmentedLog(dir, platform.SegmentOptions{
			MaxBytes: 64 << 20,
			Log:      platform.LogOptions{Fsync: fs.policy},
		})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		churn, err := newIngestChurn(cfg.Seed)
		if err != nil {
			sl.Close()
			os.RemoveAll(dir)
			return err
		}
		ev := platform.NewWorkerJoined(churn.worker()) // Seq 0: order-free append
		var benchErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := sl.Append(ev); err != nil {
						benchErr = err
						b.Fatal(err)
					}
				}
			})
		})
		sl.Close()
		os.RemoveAll(dir)
		if benchErr != nil {
			return fmt.Errorf("experiments: ingest binary-group-parallel/%s: %w", fs.name, benchErr)
		}
		add("binary-group-parallel/"+fs.name, br)
		if fs.policy == platform.FsyncNever {
			br, err := benchHTTPBatch(cfg, platform.LogOptions{Fsync: fs.policy}, 100)
			if err != nil {
				return fmt.Errorf("experiments: ingest http-batch100/%s: %w", fs.name, err)
			}
			add("http-batch100/"+fs.name, br)
		}
	}
	return nil
}

// benchHTTPBatch posts churn batches of batch events as JSON through the
// server's handler and times only ServeHTTP; b.N counts events.
func benchHTTPBatch(cfg BenchConfig, opts platform.LogOptions, batch int) (testing.BenchmarkResult, error) {
	svc, churn, closer, err := newIngestService(cfg, opts)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer closer()
	h := platform.NewServerWithOptions(svc, platform.NewServerOptions())
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		pending := make([]platform.Event, 0, batch)
		flush := func() {
			b.StopTimer()
			body, err := json.Marshal(pending)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			b.StartTimer()
			h.ServeHTTP(rec, req)
			b.StopTimer()
			var ack struct{ Applied []platform.BatchItem }
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil {
				benchErr = fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
				b.Fatal(benchErr)
			}
			churn.absorbAck(ack.Applied)
			pending = pending[:0]
			b.StartTimer()
		}
		for i := 0; i < b.N; i++ {
			pending = append(pending, churn.next())
			if len(pending) == batch {
				flush()
			}
		}
		if len(pending) > 0 {
			flush()
		}
	})
	return br, benchErr
}
