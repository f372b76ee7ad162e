package platform

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Server exposes the assignment service as a JSON HTTP API (cmd/mbaserve):
//
//	POST   /v1/workers            body: market.Worker      → {"id": n}
//	DELETE /v1/workers/{id}                                → 204
//	POST   /v1/tasks              body: market.Task        → {"id": n}
//	DELETE /v1/tasks/{id}                                  → 204
//	POST   /v1/batch              body: [Event, …]         → {"applied": […]}
//	GET    /v1/stats                                       → live counts
//	GET    /v1/healthz                                     → HealthStatus
//	GET    /v1/journal/stream?from=N                       → binary event stream
//	GET    /v1/snapshot                                    → newest snapshot bytes
//	POST   /v1/rounds?drain=true                           → RoundResult
//
// With drain=true every task assigned at least one worker in the round is
// closed afterwards — the "one round collects the panel" policy; without it
// tasks stay open and keep collecting across rounds.
//
// The write routes (workers, tasks, batch) read their body once and decode
// it with the schema decoder in eventjson.go, which accepts exactly what
// encoding/json does and yields the same values; a malformed body or a
// type error anywhere in it is a 400 and applies nothing.  The batch ack
// is rendered by hand, byte-identical to encoding/json's.
//
// Robustness posture: POST bodies are size-capped, and a body over the
// cap is always 413, whatever its bytes would have parsed as;
// ingestion requests run under a per-request timeout, and POST /v1/rounds
// is single-flight — a second concurrent close gets 409 with Retry-After
// instead of queueing behind the solver, and a round whose request
// context dies gets 503.  All limits live in ServerOptions.
type Server struct {
	svc     Backend
	mux     *http.ServeMux
	opts    ServerOptions
	adm     *Admission  // nil = admission off (seed semantics)
	closing atomic.Bool // single-flight guard on POST /v1/rounds
}

// Backend is what the HTTP layer needs from a market service.  Service (one
// market) and ShardedService (N shard markets behind one API) both satisfy
// it, so `mbaserve -shards N` serves the exact same routes.
type Backend interface {
	BatchSubmitter
	Fenceable
	HealthReporter
	// Submit validates, applies and (if configured) journals one event.
	Submit(Event) (Event, error)
	// CloseRoundCtx closes one assignment round under a context.
	CloseRoundCtx(context.Context) (*RoundResult, error)
	// Counts returns live worker/task counts (global for a sharded backend).
	Counts() (workers, tasks int)
	// Rounds returns the committed round count.
	Rounds() int
	// CheckpointNow triggers an immediate checkpoint.  ok is false when
	// checkpointing is not configured; result is the backend's own
	// JSON-renderable report (CheckpointResult, or per-shard results).
	CheckpointNow() (result any, ok bool, err error)
}

// ServerOptions bounds the server's resource exposure.  The zero value
// disables every limit (seed semantics); NewServerOptions returns the
// recommended defaults.
type ServerOptions struct {
	// MaxBodyBytes caps POST bodies via http.MaxBytesReader; 0 means
	// unlimited.
	MaxBodyBytes int64
	// RequestTimeout bounds ingestion requests (everything except round
	// closes) through the request context; 0 means unbounded.
	RequestTimeout time.Duration
	// MaxBatchBytes caps POST /v1/batch bodies separately from
	// MaxBodyBytes — a batch is by design many events; 0 means unlimited.
	MaxBatchBytes int64
	// Admission configures the priority-aware admission controller
	// (admission.go).  The zero value disables it.
	Admission AdmissionOptions
}

// NewServerOptions returns the recommended limits: 1 MiB bodies (a worker
// profile is a few KiB), 5s ingestion requests.  Rounds get no server
// deadline: bound the solve itself with a core.Degrader deadline instead
// (mbaserve -round-deadline) — a cancelled round helps nobody, a degraded
// one serves everyone.
func NewServerOptions() ServerOptions {
	return ServerOptions{
		MaxBodyBytes:   1 << 20,
		MaxBatchBytes:  8 << 20,
		RequestTimeout: 5 * time.Second,
	}
}

// NewServerWithOptions wires the HTTP handlers with explicit limits.
func NewServerWithOptions(svc Backend, opts ServerOptions) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), opts: opts, adm: NewAdmission(opts.Admission)}
	s.mux.HandleFunc("POST /v1/workers", s.handleAddWorker)
	s.mux.HandleFunc("DELETE /v1/workers/{id}", s.handleRemoveWorker)
	s.mux.HandleFunc("POST /v1/tasks", s.handleAddTask)
	s.mux.HandleFunc("DELETE /v1/tasks/{id}", s.handleRemoveTask)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/journal/stream", s.handleJournalStream)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/rounds", s.handleCloseRound)
	// POST, not GET: a checkpoint writes a snapshot and deletes journal
	// segments — side effects a crawler or monitoring probe must not be
	// able to trigger.
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	return s
}

// EpochHeader carries the replication epoch on every request and
// response of an epoch-aware backend.  Responses advertise the backend's
// current epoch; a request carrying a higher epoch than the backend's own
// proves a newer primary exists and fences the backend (ErrFenced on its
// write paths, 409 here).  A malformed request header is ignored —
// fencing is a safety net, and an unparseable value carries no evidence
// of a newer epoch.
const EpochHeader = "X-MBA-Epoch"

// Fenceable is the backend's half of epoch fencing, part of Backend.
type Fenceable interface {
	// Epoch is the backend's own (journaled) replication epoch.
	Epoch() uint64
	// ObserveEpoch records an epoch seen on the wire.
	ObserveEpoch(epoch uint64)
	// FenceStatus reports whether a higher epoch has been observed, and
	// which.
	FenceStatus() (fenced bool, observed uint64)
}

// timeoutExempt reports whether a route escapes the per-request
// ingestion deadline: round closes are bounded by their solver's
// deadline instead, and snapshot transfers are unbounded (a resyncing
// follower may pull a large file).
func timeoutExempt(method, path string) bool {
	return (method == http.MethodPost && path == "/v1/rounds") ||
		(method == http.MethodGet && path == "/v1/snapshot")
}

// ServeHTTP implements http.Handler.  Ingestion requests get the
// per-request deadline here (see timeoutExempt for the exceptions), then
// pass through admission control when it is enabled.  Every request
// gets the fencing exchange: observe the caller's epoch, advertise our
// own.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := r.Header.Get(EpochHeader); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			s.svc.ObserveEpoch(v)
		}
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(s.svc.Epoch(), 10))
	if s.opts.RequestTimeout > 0 && !timeoutExempt(r.Method, r.URL.Path) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if s.adm != nil {
		ctx := r.Context()
		deadline, _ := ctx.Deadline()
		dec := s.adm.Admit(r.Method, r.URL.Path, r.Header.Get(ClientHeader), deadline, ctx.Done())
		if !dec.OK {
			secs := int(math.Ceil(dec.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, ErrAdmissionShed)
			return
		}
		start := time.Now()
		defer func() { dec.Release(time.Since(start)) }()
	}
	s.mux.ServeHTTP(w, r)
}

// decodeRequest reads the size-capped body (0 = uncapped) and decodes it
// with one of the schema decoders in eventjson.go.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, limit int64, decode func([]byte) (T, error)) (T, error) {
	body, err := readBody(w, r, limit)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(body)
}

// writeDecodeError distinguishes an oversized body (413) from a malformed
// one (400).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeSubmitError maps a write-path error to a status: a fenced backend
// answers 409 regardless of the handler's usual failure status — the
// response's X-MBA-Epoch header (set in ServeHTTP) tells the client which
// epoch outranked this process.
func writeSubmitError(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, ErrFenced) {
		status = http.StatusConflict
	}
	writeError(w, status, err)
}

func (s *Server) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	worker, err := decodeRequest(w, r, s.opts.MaxBodyBytes, decodeWorkerJSON)
	if err != nil {
		writeDecodeError(w, fmt.Errorf("decoding worker: %w", err))
		return
	}
	applied, err := s.svc.Submit(NewWorkerJoined(worker))
	if err != nil {
		writeSubmitError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": applied.Worker.ID})
}

func (s *Server) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad worker id: %w", err))
		return
	}
	if _, err := s.svc.Submit(NewWorkerLeft(id)); err != nil {
		writeSubmitError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAddTask(w http.ResponseWriter, r *http.Request) {
	task, err := decodeRequest(w, r, s.opts.MaxBodyBytes, decodeTaskJSON)
	if err != nil {
		writeDecodeError(w, fmt.Errorf("decoding task: %w", err))
		return
	}
	applied, err := s.svc.Submit(NewTaskPosted(task))
	if err != nil {
		writeSubmitError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": applied.Task.ID})
}

func (s *Server) handleRemoveTask(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad task id: %w", err))
		return
	}
	if _, err := s.svc.Submit(NewTaskClosed(id)); err != nil {
		writeSubmitError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// BatchSubmitter is the batch write path of Backend.
type BatchSubmitter interface {
	// SubmitBatch applies a batch of ingestion events all-or-nothing
	// (POST /v1/batch, and the drain after POST /v1/rounds).
	SubmitBatch(events []Event) ([]Event, error)
}

// BatchItem is one applied event in a POST /v1/batch response: the
// journal sequence it committed at and the platform ID it resolved to.
type BatchItem struct {
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`
	ID   int       `json:"id,omitempty"`
}

// handleBatch applies a JSON array of mixed add/remove worker/task events
// all-or-nothing: one journaled append (one fsync) for the whole batch,
// 422 with nothing applied if any event is invalid.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	events, err := decodeRequest(w, r, s.opts.MaxBatchBytes, decodeEventsJSON)
	if err != nil {
		writeDecodeError(w, fmt.Errorf("decoding batch: %w", err))
		return
	}
	applied, err := s.svc.SubmitBatch(events)
	if err != nil {
		writeSubmitError(w, http.StatusUnprocessableEntity, err)
		return
	}
	items := make([]BatchItem, len(applied))
	for i := range applied {
		items[i] = BatchItem{Seq: applied[i].Seq, Kind: applied[i].Kind}
		switch {
		case applied[i].Worker != nil:
			items[i].ID = applied[i].Worker.ID
		case applied[i].WorkerID != nil:
			items[i].ID = *applied[i].WorkerID
		case applied[i].Task != nil:
			items[i].ID = applied[i].Task.ID
		case applied[i].TaskID != nil:
			items[i].ID = *applied[i].TaskID
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendBatchAck(make([]byte, 0, 16+48*len(items)), items))
}

// HealthReporter is the backend's report behind GET /v1/healthz, part
// of Backend.
type HealthReporter interface {
	Health() HealthStatus
}

// handleHealthz reports serving health: 200 while the backend is fully
// healthy, 503 once it degrades — a poisoned journal, a fenced primary,
// or a follower out of contact — so a standby's probe loop (or a load
// balancer) needs no JSON parsing to know this process is in trouble.
// An admission brownout reports "overloaded" but stays 200: shedding
// load is the server doing its job, and a probe that flipped overload
// into failover would reward the storm with a promotion.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.svc.Health()
	if s.adm != nil {
		h.Admission = s.adm.HealthSnapshot()
		if h.Status == "ok" && s.adm.Overloaded() {
			h.Status = StatusOverloaded
		}
	}
	status := http.StatusOK
	if h.Status != "ok" && h.Status != StatusOverloaded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// JournalStreamer is the optional backend capability behind GET
// /v1/journal/stream (only Service with a segmented journal implements
// it; sharded backends replicate per shard directory, not over one
// stream).
type JournalStreamer interface {
	JournalEventsSince(from uint64) ([]Event, uint64, error)
}

// JournalLastSeqHeader carries the primary's last committed sequence on
// a journal stream response, so a fully caught-up follower can still
// report accurate lag.
const JournalLastSeqHeader = "X-Journal-Last-Seq"

// handleJournalStream serves journaled events with sequence ≥ from as one
// finite binary stream (magic + framed records, the .mbaj segment format
// regardless of what is on disk).  Followers poll it; 410 tells a
// follower its start point was checkpoint-retired and it must bootstrap
// from a snapshot.
func (s *Server) handleJournalStream(w http.ResponseWriter, r *http.Request) {
	js, ok := s.svc.(JournalStreamer)
	if !ok {
		writeError(w, http.StatusNotFound, ErrStreamUnsupported)
		return
	}
	from := uint64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
			return
		}
		from = v
	}
	events, lastSeq, err := js.JournalEventsSince(from)
	if err != nil {
		switch {
		case errors.Is(err, ErrStreamUnsupported):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrSeqRetired):
			writeError(w, http.StatusGone, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(JournalLastSeqHeader, strconv.FormatUint(lastSeq, 10))
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64*1024)
	if _, err := bw.WriteString(binaryLogMagic); err != nil {
		return
	}
	var rec []byte
	for i := range events {
		rec, err = appendBinaryRecord(rec[:0], &events[i])
		if err != nil {
			return // stream truncates; the follower's decoder keeps its valid prefix
		}
		if _, err := bw.Write(rec); err != nil {
			return
		}
	}
	_ = bw.Flush()
}

// SnapshotProvider is the optional backend capability behind GET
// /v1/snapshot: the newest CRC-verified snapshot as raw bytes, for a
// follower whose replication position was checkpoint-retired (410 on the
// journal stream) to bootstrap from.
type SnapshotProvider interface {
	LatestSnapshot() (io.ReadCloser, SnapshotInfo, error)
}

// SnapshotSeqHeader carries the served snapshot's sequence number, so a
// resyncing follower knows its re-tail position before decoding a byte.
const SnapshotSeqHeader = "X-MBA-Snapshot-Seq"

// handleSnapshot streams the newest valid snapshot file.  404 when the
// backend cannot serve one (no checkpointing configured, or nothing
// written yet) — a follower translates that into "resync impossible,
// keep retrying the stream".
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	sp, ok := s.svc.(SnapshotProvider)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNoSnapshot)
		return
	}
	rc, info, err := sp.LatestSnapshot()
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			writeError(w, http.StatusNotFound, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SnapshotSeqHeader, strconv.FormatUint(info.Seq, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	workers, tasks := s.svc.Counts()
	writeJSON(w, http.StatusOK, map[string]int{
		"workers": workers,
		"tasks":   tasks,
		"rounds":  s.svc.Rounds(),
	})
}

// handleCheckpoint triggers an immediate snapshot + journal compaction.
// 404 when the backend has no checkpoint manager attached (serving
// without -snapshot-dir).
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	res, ok, err := s.svc.CheckpointNow()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("checkpointing not configured"))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCloseRound(w http.ResponseWriter, r *http.Request) {
	// Single-flight: a concurrent second close would only queue behind the
	// solver on roundMu; telling the client to come back is strictly better.
	if !s.closing.CompareAndSwap(false, true) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, errors.New("a round is already closing"))
		return
	}
	defer s.closing.Store(false)

	ctx := r.Context()
	res, err := s.svc.CloseRoundCtx(ctx)
	if err != nil {
		if ctx.Err() != nil {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("round abandoned: %w", err))
			return
		}
		writeSubmitError(w, http.StatusInternalServerError, err)
		return
	}
	if r.URL.Query().Get("drain") == "true" {
		assigned := map[int]bool{}
		for _, p := range res.Pairs {
			assigned[p.TaskID] = true
		}
		// Close in sorted order so the journal (and any replay) is
		// deterministic instead of following map iteration order, as one
		// all-or-nothing batch: one journal append, one fsync.
		ids := make([]int, 0, len(assigned))
		for id := range assigned {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		closes := make([]Event, len(ids))
		for i, id := range ids {
			closes[i] = NewTaskClosed(id)
		}
		if _, err := s.svc.SubmitBatch(closes); err != nil {
			writeSubmitError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, res)
}
