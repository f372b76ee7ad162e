package main

import (
	"sync"
	"testing"
)

func TestComputeSelf(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps span 2: together they cover 10..50
		{ID: 4, Parent: 1, Start: 90, End: 120}, // only 90..100 lies inside span 1
		{ID: 5, Parent: 2, Start: 15, End: 20},
		{ID: 6, Parent: 9, Start: 0, End: 7}, // parent not recorded
	}
	computeSelf(spans)
	want := map[uint64]int64{1: 50, 2: 25, 3: 20, 4: 30, 5: 5, 6: 7}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	outer := tr.beginRemote("http.submit", 7)
	inner := tr.begin("service.submit", 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.begin("client.submit", 1).end()
	}()
	wg.Wait()
	inner.end()
	outer.end()
	tr.begin("service.round", 0).end()

	got := map[string]span{}
	for _, s := range tr.finish() {
		got[s.Name] = s
	}
	if s := got["http.submit"]; s.Parent != 7 || s.Req != 7 {
		t.Errorf("server span %+v: want parent and request 7", s)
	}
	if s := got["service.submit"]; s.Parent != got["http.submit"].ID || s.Req != 7 {
		t.Errorf("nested span %+v: want parent %d, request 7", s, got["http.submit"].ID)
	}
	if s := got["client.submit"]; s.Parent != 0 || s.Req != s.ID {
		t.Errorf("span on another goroutine %+v: want no parent", s)
	}
	if s := got["service.round"]; s.Parent != 0 {
		t.Errorf("span after its goroutine's spans ended %+v: want no parent", s)
	}
}
