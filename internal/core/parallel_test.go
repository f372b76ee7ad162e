package core

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// chunkLog records what forChunks did with each chunk.
type chunkLog struct {
	runs    []atomic.Int32 // per chunk: times run
	goid    []atomic.Int64 // per chunk: the goroutine it last ran on
	done    []atomic.Bool  // per chunk: returned normally
	started chan struct{}  // closed by chunk 0 before it panics
}

func newChunkLog(chunks int) *chunkLog {
	return &chunkLog{
		runs:    make([]atomic.Int32, chunks),
		goid:    make([]atomic.Int64, chunks),
		done:    make([]atomic.Bool, chunks),
		started: make(chan struct{}),
	}
}

func (l *chunkLog) record(k int) {
	l.runs[k].Add(1)
	l.goid[k].Store(goroutineID())
}

func (l *chunkLog) count(k int) { l.runs[k].Add(1) }

// panicLate panics on chunks 0 and 2, and returns from every other chunk
// well after chunk 0 has panicked.
func (l *chunkLog) panicLate(k int) {
	switch k {
	case 0:
		close(l.started)
		panic("chunk 0")
	case 2:
		<-l.started
		panic("chunk 2")
	}
	<-l.started
	time.Sleep(20 * time.Millisecond)
	l.done[k].Store(true)
}

// goroutineID parses the calling goroutine's id out of its stack header.
func goroutineID() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestForChunks pins the runner's contract: every chunk runs exactly
// once, one chunk runs inline on the caller and allocates nothing, more
// run off the caller, and a chunk's panic re-raises on the caller (the
// lowest chunk's) only after every chunk has returned.
func TestForChunks(t *testing.T) {
	self := goroutineID()
	for _, chunks := range []int{1, 2, 3, 7, 64} {
		l := newChunkLog(chunks)
		forChunks(l, chunks, (*chunkLog).record)
		for k := range l.runs {
			if n := l.runs[k].Load(); n != 1 {
				t.Fatalf("chunks=%d: chunk %d ran %d times", chunks, k, n)
			}
			if inline := l.goid[k].Load() == self; inline != (chunks == 1) {
				t.Fatalf("chunks=%d: chunk %d ran inline=%v", chunks, k, inline)
			}
		}
	}

	l := newChunkLog(1)
	if n := testing.AllocsPerRun(100, func() { forChunks(l, 1, (*chunkLog).count) }); n != 0 {
		t.Fatalf("one chunk: %v allocs per run, want 0", n)
	}

	l = newChunkLog(5)
	func() {
		defer func() {
			if r := recover(); r != "chunk 0" {
				t.Fatalf("recovered %v, want chunk 0's panic", r)
			}
		}()
		forChunks(l, 5, (*chunkLog).panicLate)
	}()
	for _, k := range []int{1, 3, 4} {
		if !l.done[k].Load() {
			t.Fatalf("re-panicked before chunk %d returned", k)
		}
	}
}
