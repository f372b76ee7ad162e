package platform

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
)

func mustService(t *testing.T, log *Log) *Service {
	t.Helper()
	s := mustState(t)
	svc, err := NewService(s, core.Greedy{Kind: core.MutualWeight}, benefit.DefaultParams(), log, 1)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewServiceValidation(t *testing.T) {
	s := mustState(t)
	if _, err := NewService(nil, core.Greedy{}, benefit.DefaultParams(), nil, 1); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := NewService(s, nil, benefit.DefaultParams(), nil, 1); err == nil {
		t.Fatal("nil solver accepted")
	}
	if _, err := NewService(s, core.Greedy{}, benefit.Params{Lambda: 3}, nil, 1); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestCloseRoundAssigns(t *testing.T) {
	svc := mustService(t, nil)
	for i := 0; i < 4; i++ {
		if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no assignments made")
	}
	if res.Round != 1 || svc.State().Rounds() != 1 {
		t.Fatalf("round counter = %d / %d", res.Round, svc.State().Rounds())
	}
	// Pairs reference live platform identities.
	for _, p := range res.Pairs {
		if p.Mutual <= 0 {
			t.Fatalf("pair with no benefit: %+v", p)
		}
	}
}

func TestCloseRoundEmptyMarket(t *testing.T) {
	svc := mustService(t, nil)
	res, err := svc.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || res.Round != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestServiceJournalsEverything(t *testing.T) {
	var buf bytes.Buffer
	svc := mustService(t, NewLog(&buf))
	svc.Submit(NewWorkerJoined(validWorker()))
	svc.Submit(NewTaskPosted(validTask()))
	if _, err := svc.CloseRound(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 { // join, post, round marker
		t.Fatalf("journal has %d events", len(events))
	}
	replayed, err := Replay(3, events)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Rounds() != 1 {
		t.Fatal("round marker lost in replay")
	}
}

func TestServiceConcurrentSubmit(t *testing.T) {
	svc := mustService(t, NewLog(&bytes.Buffer{}))
	var wg sync.WaitGroup
	const n = 50
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	w, tk := svc.State().Counts()
	if w != n || tk != n {
		t.Fatalf("counts (%d,%d), want (%d,%d)", w, tk, n, n)
	}
	if _, err := svc.CloseRound(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceWithExactSolver(t *testing.T) {
	s := mustState(t)
	svc, err := NewService(s, core.Exact{Kind: core.MutualWeight}, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		svc.Submit(NewWorkerJoined(validWorker()))
		tk := market.Task{Category: 2, Replication: 1, Payment: 3, Difficulty: 0.1}
		svc.Submit(NewTaskPosted(tk))
	}
	res, err := svc.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(res.Pairs))
	}
}

// State exposes the underlying state (read-mostly use).
func (s *Service) State() *State { return s.state }
