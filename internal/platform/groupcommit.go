package platform

// groupCommitMax caps how many callers' appends one flush absorbs.
const groupCommitMax = 128

// commitReq is one caller queued behind an in-flight flush.  buf is
// fixed once queued; err and done are guarded by Log.mu.
type commitReq struct {
	buf  []byte
	err  error
	done bool
}

// commit makes buf durable by leader-based group commit, on the caller's
// goroutine.  The first caller to find no flush in flight leads: it
// writes its own records plus whatever callers queued meanwhile (up to
// groupCommitMax in all) as one write and one fsync, answers every queued
// caller of that flush with the same error, and hands the next flush to
// the front of the queue.  A lone append is therefore one inline write;
// concurrent appends coalesce.  commit returns once buf's flush has
// reported, so an ack still means durable.
//
// Failure semantics: every caller coalesced into a failing flush gets the
// same error, and the Log poisons exactly as a lone torn write would.
// Callers queued behind a poisoned log are answered ErrLogPoisoned
// without touching the writer, which is what makes SegmentedLog's heal
// (truncate to Log.committedBytes) safe to run as soon as any caller
// observes the poisoning.
func (l *Log) commit(buf []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if l.flushing || len(l.queue) > 0 {
		self := &commitReq{buf: buf}
		l.queue = append(l.queue, self)
		for !self.done && (l.flushing || l.queue[0] != self) {
			l.flushed.Wait()
		}
		if self.done {
			l.mu.Unlock()
			return self.err
		}
		// Front of the queue with no flush in flight: lead the next one.
		l.queue[0] = nil
		l.queue = l.queue[1:]
	}
	batch := l.queue[:min(len(l.queue), groupCommitMax-1)]
	l.queue = l.queue[len(batch):]
	l.flushing = true
	l.mu.Unlock()

	if len(batch) > 0 {
		joined := append([]byte(nil), buf...)
		for _, r := range batch {
			joined = append(joined, r.buf...)
		}
		buf = joined
	}
	// A poisoned stream takes no more writes: anything after the tear
	// would be lost to recovery.
	err := ErrLogPoisoned
	if !l.Poisoned() {
		err = l.commitBytes(buf)
	}

	l.mu.Lock()
	for i, r := range batch {
		r.err, r.done = err, true
		batch[i] = nil // the queue's array must not pin answered buffers
	}
	l.flushing = false
	l.flushed.Broadcast()
	l.mu.Unlock()
	return err
}

// Close marks the log closed and waits until every append it already
// accepted has flushed.  Appends after Close return ErrLogClosed.  The
// underlying writer stays open (the caller owns it), and a Log holds no
// goroutine, so an unclosed Log leaks nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	for l.flushing || len(l.queue) > 0 {
		l.flushed.Wait()
	}
	l.mu.Unlock()
	return nil
}
