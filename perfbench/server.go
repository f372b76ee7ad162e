package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/platform"
)

// numCategories is the category universe of market.FreelanceTraceConfig.
const numCategories = 30

// serviceSeed is mbaserve's default -seed (it only feeds randomised
// solvers; greedy and incremental ignore it).
const serviceSeed = 42

// serving is one assembled single-market primary on a loopback listener.
type serving struct {
	state *platform.State
	seg   *platform.SegmentedLog
	url   string
	srv   *http.Server
	done  chan error
}

// openServing assembles the serving stack the way `mbaserve -snapshot-dir
// DIR -journal-format binary -fsync always -solver NAME` does in
// single-market primary mode, with two differences: the admission token
// buckets are off (the AIMD limiter and its queue still run), and close
// takes no parting checkpoint, so the recovery check reads the journal
// tail.  With tr set, every layer is wrapped in its timing wrapper; the
// checkpoint manager keeps the raw log either way.
func openServing(dir, solverName string, tr *tracer) (*serving, error) {
	state, _, err := platform.RecoverDir(dir, numCategories)
	if err != nil {
		return nil, err
	}
	seg, err := platform.OpenSegmentedLog(dir, platform.SegmentOptions{
		MaxBytes: platform.DefaultSegmentBytes,
		Log: platform.LogOptions{
			Fsync:        platform.FsyncAlways,
			MaxRetries:   3,
			RetryBackoff: 2 * time.Millisecond,
			Format:       platform.FormatBinary,
			GroupCommit:  true,
		},
	})
	if err != nil {
		return nil, err
	}
	s := &serving{state: state, seg: seg, done: make(chan error, 1)}
	if err := s.start(solverName, tr); err != nil {
		seg.Close()
		return nil, err
	}
	return s, nil
}

func (s *serving) start(solverName string, tr *tracer) error {
	solver, err := core.ByName(solverName)
	if err != nil {
		return err
	}
	var jnl platform.Journal = s.seg
	if tr != nil {
		if solver, err = traceSolver(solver, tr); err != nil {
			return err
		}
		jnl = tracedJournal{seg: s.seg, tr: tr}
	}
	svc, err := platform.NewService(s.state, solver, benefit.Params{Lambda: 0.5, Beta: 0.5}, jnl, serviceSeed)
	if err != nil {
		return err
	}
	cm, err := platform.NewCheckpointManager(s.state, s.seg, platform.CheckpointOptions{EveryRounds: 50, Keep: 2})
	if err != nil {
		return err
	}
	svc.SetCheckpointer(cm)

	// A closed-loop batch or round client would otherwise be measuring
	// the 50/s RateLow bucket.
	opts := platform.NewServerOptions()
	adm := platform.NewAdmissionOptions()
	adm.RateHigh, adm.RateMedium, adm.RateLow = 0, 0, 0
	opts.Admission = adm

	var backend platform.Backend = svc
	if tr != nil {
		backend = tracedBackend{svc: svc, tr: tr}
	}
	var h http.Handler = platform.NewServerWithOptions(backend, opts)
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return nil
}

// close drains the server, waits for its accept loop to exit and closes
// the journal, flushing the group committer.
func (s *serving) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.seg.Close())
}
