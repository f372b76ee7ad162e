package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the client span's ID to the server, which makes
// it the parent and the request ID of every server-side span.
const requestIDHeader = "X-Request-ID"

// span is one timed call into a layer.  Times are nanoseconds since the
// tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int    `json:"events,omitempty"`
	Tag    string `json:"tag,omitempty"`
	Self   int64  `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  Server-side layers
// are called synchronously on the request's goroutine, so the innermost
// open span of the calling goroutine is the parent of a new one.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	on   atomic.Bool // record ended spans; set only during timed phases

	mu     sync.Mutex
	spans  []span
	stacks map[uint64][]*active // goroutine ID → open spans, innermost last
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stacks: map[uint64][]*active{}}
}

// active is an open span.
type active struct {
	tr  *tracer
	gid uint64
	s   span
}

// begin opens a span whose parent is the calling goroutine's innermost
// open span, if any.
func (t *tracer) begin(name string, events int) *active {
	gid := goid()
	t.mu.Lock()
	var parent, req uint64
	if st := t.stacks[gid]; len(st) > 0 {
		parent, req = st[len(st)-1].s.ID, st[len(st)-1].s.Req
	}
	t.mu.Unlock()
	return t.open(gid, name, parent, req, events)
}

// beginRemote opens a span whose parent lives on another goroutine (the
// client span named by a request header).
func (t *tracer) beginRemote(name string, parent uint64) *active {
	return t.open(goid(), name, parent, parent, 0)
}

func (t *tracer) open(gid uint64, name string, parent, req uint64, events int) *active {
	a := &active{tr: t, gid: gid}
	a.s = span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Events: events}
	if a.s.Req == 0 {
		a.s.Req = a.s.ID
	}
	t.mu.Lock()
	t.stacks[gid] = append(t.stacks[gid], a)
	t.mu.Unlock()
	a.s.Start = int64(time.Since(t.t0))
	return a
}

func (a *active) end() {
	a.s.End = int64(time.Since(a.tr.t0))
	t := a.tr
	t.mu.Lock()
	st := t.stacks[a.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == a {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.stacks, a.gid)
	} else {
		t.stacks[a.gid] = st
	}
	if t.on.Load() {
		t.spans = append(t.spans, a.s)
	}
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans ordered by
// start time.
func (t *tracer) finish() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	computeSelf(out)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// computeSelf sets each span's Self to its duration minus the part of its
// interval that its children cover (overlapping children count once).
func computeSelf(spans []span) {
	children := map[uint64][][2]int64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's ID, parsed from the first line of
// its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
