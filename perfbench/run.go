package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/market"
	"repro/internal/platform"
)

// loadBatch is how many events one set-up POST /v1/batch carries.
const loadBatch = 256

// run is one set-up market and the clients that drive it.
type run struct {
	w       *workload
	dir     string
	srv     *serving
	tr      *tracer
	hc      *http.Client
	clients []*client
	rounds  []roundRec
	digest  hash.Hash // over every round's pairs and TotalMutual
}

// roundRec is what the benchmark keeps of one closed round.
type roundRec struct {
	timed        bool
	lat          time.Duration
	mutual       float64
	warm         bool
	dirty        float64
	fallback     bool
	checkpointed bool
}

// client is one closed-loop client with its own connection and model.
type client struct {
	r   *run
	m   *model
	rec recorder
}

type recorder struct {
	timed     bool
	lat       map[string][]time.Duration // timed phase only
	attempted int
	failed    int
	events    int // events acknowledged in the timed phase
}

// setup builds a market from an empty dir: server up, initial market
// loaded through /v1/batch, and for round workloads the first, cold round.
func setup(w *workload, pool *market.Instance, dir string, tr *tracer) (*run, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	srv, err := openServing(dir, w.solver, tr)
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, dir: dir, srv: srv, tr: tr, digest: sha256.New()}
	r.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        w.clients,
		MaxIdleConnsPerHost: w.clients,
		MaxConnsPerHost:     w.clients,
		DisableCompression:  true,
	}}
	for i := 0; i < w.clients; i++ {
		r.clients = append(r.clients, &client{r: r, m: newModel(pool, w, i), rec: recorder{lat: map[string][]time.Duration{}}})
	}
	err = r.load(pool)
	if err == nil && w.round {
		if err = r.clients[0].closeRound(); err == nil && len(r.rounds) == 0 {
			err = errors.New("the cold round was refused")
		}
	}
	if err != nil {
		return nil, 0, errors.Join(err, r.close())
	}
	return r, time.Since(start), nil
}

// load posts the initial market, workers then tasks, in pool order.
func (r *run) load(pool *market.Instance) error {
	c := r.clients[0]
	n := len(r.clients)
	for lo := 0; lo < r.w.workers; lo += loadBatch {
		events := make([]platform.Event, 0, loadBatch)
		for i := lo; i < min(lo+loadBatch, r.w.workers); i++ {
			wk := pool.Workers[i]
			wk.ID = 0
			events = append(events, platform.NewWorkerJoined(wk))
		}
		applied, err := c.batch("load", events)
		if err == nil && len(applied) != len(events) {
			err = errors.New("initial market batch refused")
		}
		if err != nil {
			return err
		}
		for k, it := range applied {
			r.clients[(lo+k)%n].m.addWorker(it.ID, events[k].Worker.Capacity)
		}
	}
	for lo := 0; lo < r.w.tasks; lo += loadBatch {
		events := make([]platform.Event, 0, loadBatch)
		for i := lo; i < min(lo+loadBatch, r.w.tasks); i++ {
			t := pool.Tasks[i]
			t.ID = 0
			events = append(events, platform.NewTaskPosted(t))
		}
		applied, err := c.batch("load", events)
		if err == nil && len(applied) != len(events) {
			err = errors.New("initial market batch refused")
		}
		if err != nil {
			return err
		}
		for k, it := range applied {
			r.clients[(lo+k)%n].m.addTask(it.ID, events[k].Task.Replication)
		}
	}
	return nil
}

// drive runs cycles cycles on every client concurrently.
func (r *run) drive(cycles int, timed bool) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		c.rec.timed = timed
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := 0; k < cycles; k++ {
				if err := c.cycle(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *run) close() error {
	err := r.srv.close()
	r.hc.CloseIdleConnections()
	return err
}

// health reads /v1/healthz outside the recorded operations.
func (r *run) health() (platform.HealthStatus, error) {
	var h platform.HealthStatus
	res, err := r.hc.Get(r.srv.url + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer res.Body.Close()
	return h, json.NewDecoder(res.Body).Decode(&h)
}

// verify checks, after the server has shut down, that recovery from the
// data dir rebuilds the live state byte for byte (every acknowledged write
// survived) and that the clients' models hold exactly the live entities.
func (r *run) verify() error {
	rec, _, err := platform.RecoverDir(r.dir, numCategories)
	if err != nil {
		return fmt.Errorf("recovering %s: %w", r.dir, err)
	}
	var live, got bytes.Buffer
	if _, err := r.srv.state.EncodeSnapshot(&live); err != nil {
		return err
	}
	if _, err := rec.EncodeSnapshot(&got); err != nil {
		return err
	}
	if !bytes.Equal(live.Bytes(), got.Bytes()) {
		return errors.New("recovered state differs from the live state")
	}
	workers, tasks := 0, 0
	for _, c := range r.clients {
		workers += len(c.m.workers)
		tasks += len(c.m.tasks)
		for _, id := range c.m.workers {
			if _, ok := r.srv.state.Worker(id); !ok {
				return fmt.Errorf("worker %d acknowledged but not live", id)
			}
		}
		for _, id := range c.m.tasks {
			if _, ok := r.srv.state.Task(id); !ok {
				return fmt.Errorf("task %d acknowledged but not open", id)
			}
		}
	}
	if w, t := r.srv.state.Counts(); w != workers || t != tasks {
		return fmt.Errorf("state holds %d workers and %d tasks, the clients %d and %d", w, t, workers, tasks)
	}
	return nil
}

func (c *client) cycle() error {
	w := c.r.w
	for _, o := range w.singles {
		if err := c.single(o); err != nil {
			return err
		}
	}
	if w.batchW+w.batchT > 0 {
		events := c.m.churnBatch(w)
		applied, err := c.batch("batch", events)
		if err != nil {
			return err
		}
		if applied != nil {
			if err := c.m.absorb(events, applied); err != nil {
				return err
			}
		}
	}
	if w.round {
		return c.closeRound()
	}
	return nil
}

// call sends one request and reads the whole response.  The latency runs
// from just before the request is sent to its last response byte; encoding
// the body and decoding the reply stay outside it.  A non-2xx answer is
// counted as failed and reported as ok=false with a nil error.
func (c *client) call(kind, method, path string, body []byte, events int) (resp []byte, ok bool, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.r.srv.url+path, rd)
	if err != nil {
		return nil, false, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp *active
	if c.r.tr != nil {
		sp = c.r.tr.begin("client."+kind, events)
		req.Header.Set(requestIDHeader, strconv.FormatUint(sp.s.ID, 10))
	}
	start := time.Now()
	res, err := c.r.hc.Do(req)
	if err == nil {
		resp, err = io.ReadAll(res.Body)
		res.Body.Close()
	}
	lat = time.Since(start)
	if sp != nil {
		sp.end()
	}
	if err != nil {
		return nil, false, lat, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.rec.attempted++
	if res.StatusCode/100 != 2 {
		c.rec.failed++
		return resp, false, lat, nil
	}
	if c.rec.timed {
		c.rec.lat[kind] = append(c.rec.lat[kind], lat)
		c.rec.events += events
	}
	return resp, true, lat, nil
}

func (c *client) single(o op) error {
	m := c.m
	var method, path string
	var body []byte
	var err error
	var capacity, replication int
	switch o {
	case joinWorker:
		wk := m.worker()
		capacity = wk.Capacity
		method, path = http.MethodPost, "/v1/workers"
		body, err = json.Marshal(wk)
	case leaveWorker:
		method, path = http.MethodDelete, "/v1/workers/"+strconv.Itoa(m.workers[0])
	case postTask:
		t := m.task()
		replication = t.Replication
		method, path = http.MethodPost, "/v1/tasks"
		body, err = json.Marshal(t)
	case closeTask:
		method, path = http.MethodDelete, "/v1/tasks/"+strconv.Itoa(m.tasks[0])
	}
	if err != nil {
		return err
	}
	resp, ok, _, err := c.call("submit", method, path, body, 1)
	if !ok {
		return err
	}
	switch o {
	case leaveWorker:
		return m.removeWorker(m.workers[0])
	case closeTask:
		return m.removeTask(m.tasks[0])
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("decoding %s reply: %w", path, err)
	}
	if o == joinWorker {
		m.addWorker(out.ID, capacity)
	} else {
		m.addTask(out.ID, replication)
	}
	return nil
}

// batch posts events; applied is nil when the server refused the batch.
func (c *client) batch(kind string, events []platform.Event) ([]platform.BatchItem, error) {
	body, err := json.Marshal(events)
	if err != nil {
		return nil, err
	}
	resp, ok, _, err := c.call(kind, http.MethodPost, "/v1/batch", body, len(events))
	if !ok {
		return nil, err
	}
	var out struct {
		Applied []platform.BatchItem `json:"applied"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil, fmt.Errorf("decoding batch reply: %w", err)
	}
	return out.Applied, nil
}

// closeRound closes one round, checks it and adds it to the digest.
func (c *client) closeRound() error {
	resp, ok, lat, err := c.call("round", http.MethodPost, "/v1/rounds", nil, 0)
	if !ok {
		return err
	}
	var res platform.RoundResult
	if err := json.Unmarshal(resp, &res); err != nil {
		return fmt.Errorf("decoding round reply: %w", err)
	}
	if err := c.m.checkRound(&res); err != nil {
		return err
	}
	r := c.r
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		r.digest.Write(b[:])
	}
	put(uint64(res.Round))
	put(uint64(len(res.Pairs)))
	for _, p := range res.Pairs {
		put(uint64(p.WorkerID))
		put(uint64(p.TaskID))
	}
	put(math.Float64bits(res.Metrics.TotalMutual))
	r.rounds = append(r.rounds, roundRec{
		timed:        c.rec.timed,
		lat:          lat,
		mutual:       res.Metrics.TotalMutual,
		warm:         res.WarmStarted,
		dirty:        res.DirtyFraction,
		fallback:     res.FullSolveFallback,
		checkpointed: res.Checkpointed,
	})
	return nil
}

// result is what one measured run reports, summed over its episodes.
type result struct {
	setupS    []float64
	lat       map[string][]time.Duration
	attempted int
	failed    int
	events    int
	wall      time.Duration
	rounds    []roundRec
	digest    string // every round's pairs and TotalMutual
	journal   string // data dir contents, see journalDigest
	cpuS      float64
	gcCycles  uint32
	gcPauseMS float64
	shed      int64   // admission sheds reported by healthz
	limit     float64 // AIMD inflight limit at the end of the last episode
	segBytes  int64
	segEvents uint64
}

// episodeSeed derives episode e's market seed from the run's seed.
func episodeSeed(seed uint64, e int) uint64 {
	return seed*1000003 + uint64(e)
}

// measure runs the workload's episodes.  Each sets up a fresh market from
// its own seed, runs the warm-up and its share of the timed cycles, shuts
// the server down and checks its outputs.  Spreading the timed work over
// several markets keeps one market's structure from setting the numbers.
func measure(w *workload, seed uint64, cycles int, dir string, tr *tracer) (*result, error) {
	res := &result{lat: map[string][]time.Duration{}}
	rounds, journals := sha256.New(), sha256.New()
	for e := 0; e < w.episodes; e++ {
		// Flush what earlier episodes and runs wrote, so that its
		// writeback does not land in this episode's fsyncs.
		syscall.Sync()
		pool, err := w.generatePool(episodeSeed(seed, e), cycles)
		if err != nil {
			return nil, err
		}
		r, took, err := setup(w, pool, filepath.Join(dir, fmt.Sprintf("episode-%d", e)), tr)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, took.Seconds())
		if err := res.episode(r, cycles); err != nil {
			return nil, err
		}
		rounds.Write(r.digest.Sum(nil))
		j, err := journalDigest(r.dir, w.clients == 1)
		if err != nil {
			return nil, err
		}
		io.WriteString(journals, j)
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
	}
	res.digest = hex.EncodeToString(rounds.Sum(nil))[:16]
	res.journal = hex.EncodeToString(journals.Sum(nil))[:16]
	return res, nil
}

// episode runs the warm-up and the timed cycles on a set-up market, then
// shuts it down and verifies it.
func (res *result) episode(r *run, cycles int) error {
	if err := r.drive(r.w.warmup, false); err != nil {
		return errors.Join(err, r.close())
	}
	runtime.GC()
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	err := r.drive(cycles, true)
	res.wall += time.Since(start)
	res.cpuS += cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	res.gcCycles += ms1.NumGC - ms0.NumGC
	res.gcPauseMS += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if err != nil {
		return errors.Join(err, r.close())
	}

	h, err := r.health()
	if err != nil {
		return errors.Join(err, r.close())
	}
	if a := h.Admission; a != nil {
		res.shed += a.Shed.High + a.Shed.Medium + a.Shed.Low
		res.limit = a.InflightLimit
	}
	segs := r.srv.seg.Segments()
	for _, s := range segs {
		res.segBytes += s.Size
	}
	if len(segs) > 0 {
		res.segEvents += r.srv.state.Seq() - segs[0].FirstSeq + 1
	}
	if err := r.close(); err != nil {
		return err
	}
	if err := r.verify(); err != nil {
		return err
	}
	for _, c := range r.clients {
		for k, v := range c.rec.lat {
			res.lat[k] = append(res.lat[k], v...)
		}
		res.attempted += c.rec.attempted
		res.failed += c.rec.failed
		res.events += c.rec.events
	}
	res.rounds = append(res.rounds, r.rounds...)
	return nil
}

// journalDigest hashes what the data dir holds.  ordered hashes every
// journal segment and snapshot byte for byte.  Otherwise it hashes the
// sorted multiset of journaled events, with platform IDs replaced by the
// entity they name: concurrent clients interleave differently on every
// run, but they must journal the same events.
func journalDigest(dir string, ordered bool) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var lines []string
	workers, tasks := map[int]string{}, map[int]string{}
	for _, e := range entries {
		name := e.Name()
		journal := strings.HasPrefix(name, "journal.")
		if !journal && !(ordered && strings.HasPrefix(name, "snapshot.") && strings.HasSuffix(name, ".mba")) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		if ordered {
			io.WriteString(h, name)
			h.Write(b)
			continue
		}
		events, err := platform.ReadLog(bytes.NewReader(b))
		if err != nil {
			return "", fmt.Errorf("reading %s: %w", name, err)
		}
		for _, ev := range events {
			switch ev.Kind {
			case platform.EventWorkerJoined:
				wk := *ev.Worker
				id := wk.ID
				wk.ID = 0
				j, err := json.Marshal(wk)
				if err != nil {
					return "", err
				}
				workers[id] = string(j)
				lines = append(lines, "+w"+workers[id])
			case platform.EventWorkerLeft:
				lines = append(lines, "-w"+workers[*ev.WorkerID])
			case platform.EventTaskPosted:
				t := *ev.Task
				id := t.ID
				t.ID = 0
				j, err := json.Marshal(t)
				if err != nil {
					return "", err
				}
				tasks[id] = string(j)
				lines = append(lines, "+t"+tasks[id])
			case platform.EventTaskClosed:
				lines = append(lines, "-t"+tasks[*ev.TaskID])
			default:
				lines = append(lines, string(ev.Kind))
			}
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		io.WriteString(h, l+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
