package core

import (
	"runtime"
	"sync"
)

// fanOut resolves the number of chunks a parallel pass splits n items
// into.  procs > 0 is taken as given (the tests' seam); procs <= 0 selects
// GOMAXPROCS, or 1 when n is below cutoff, where the fan-out costs more
// than it saves.  The result is clamped to [1, n].
func fanOut(procs, n, cutoff int) int {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
		if n < cutoff {
			procs = 1
		}
	}
	return max(1, min(procs, n))
}

// forChunks runs pass(s, k) for every chunk k in [0, chunks): inline for
// one chunk, otherwise on one goroutine per chunk.  A pass reads its own
// bounds from s, so chunks share nothing but s.  It returns once every
// chunk has returned, then re-panics the first chunk's panic, if any, on
// the caller, so the caller's panic fence (RunCtx, the Degrader's stages)
// contains a fault in any chunk.
//
// pass should be a method expression, like (*lsState).sweepWorkers: a
// method value or closure would allocate even when the pass runs inline.
func forChunks[S any](s S, chunks int, pass func(S, int)) {
	if chunks == 1 {
		pass(s, 0)
		return
	}
	panics := make([]any, chunks)
	var wg sync.WaitGroup
	wg.Add(chunks)
	for k := range chunks {
		go func() {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			pass(s, k)
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}
