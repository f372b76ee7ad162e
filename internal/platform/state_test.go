package platform

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/market"
)

// validWorker returns a valid 3-category worker profile.
func validWorker() market.Worker {
	return market.Worker{
		Capacity:        2,
		Accuracy:        []float64{0.8, 0.6, 0.7},
		Interest:        []float64{0.9, 0.1, 0.4},
		Specialties:     []int{0, 2},
		ReservationWage: 1,
	}
}

// validTask returns a valid task in category 0.
func validTask() market.Task {
	return market.Task{Category: 0, Replication: 2, Payment: 5, Difficulty: 0.3}
}

// NumCategories returns the category universe size.
func (s *State) NumCategories() int { return s.numCategories }

func mustState(t *testing.T) *State {
	t.Helper()
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Fatal("zero categories accepted")
	}
	if _, err := NewState(-1); err == nil {
		t.Fatal("negative categories accepted")
	}
}

func TestApplyWorkerLifecycle(t *testing.T) {
	s := mustState(t)
	e1, err := s.Apply(NewWorkerJoined(validWorker()))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Apply(NewWorkerJoined(validWorker()))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Worker.ID == e2.Worker.ID {
		t.Fatal("platform assigned duplicate worker IDs")
	}
	if e1.Seq >= e2.Seq {
		t.Fatal("sequence numbers not increasing")
	}
	if w, _ := s.Counts(); w != 2 {
		t.Fatalf("workers = %d", w)
	}
	if _, err := s.Apply(NewWorkerLeft(e1.Worker.ID)); err != nil {
		t.Fatal(err)
	}
	if w, _ := s.Counts(); w != 1 {
		t.Fatalf("workers after leave = %d", w)
	}
	if _, err := s.Apply(NewWorkerLeft(e1.Worker.ID)); err == nil {
		t.Fatal("double leave accepted")
	}
}

func TestApplyTaskLifecycle(t *testing.T) {
	s := mustState(t)
	e, err := s.Apply(NewTaskPosted(validTask()))
	if err != nil {
		t.Fatal(err)
	}
	if _, tasks := s.Counts(); tasks != 1 {
		t.Fatalf("tasks = %d", tasks)
	}
	if _, err := s.Apply(NewTaskClosed(e.Task.ID)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(NewTaskClosed(e.Task.ID)); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestApplyRejectsBadProfiles(t *testing.T) {
	s := mustState(t)
	cases := []struct {
		name string
		mut  func(*market.Worker)
	}{
		{"negative capacity", func(w *market.Worker) { w.Capacity = -1 }},
		{"short accuracy", func(w *market.Worker) { w.Accuracy = w.Accuracy[:1] }},
		{"accuracy below half", func(w *market.Worker) { w.Accuracy[0] = 0.2 }},
		{"interest above one", func(w *market.Worker) { w.Interest[0] = 2 }},
		{"no specialties", func(w *market.Worker) { w.Specialties = nil }},
		{"bad specialty", func(w *market.Worker) { w.Specialties = []int{5} }},
		{"dup specialty", func(w *market.Worker) { w.Specialties = []int{1, 1} }},
		{"negative wage", func(w *market.Worker) { w.ReservationWage = -1 }},
	}
	for _, tc := range cases {
		w := validWorker()
		tc.mut(&w)
		if _, err := s.Apply(NewWorkerJoined(w)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	badTasks := []struct {
		name string
		mut  func(*market.Task)
	}{
		{"bad category", func(tk *market.Task) { tk.Category = 9 }},
		{"zero replication", func(tk *market.Task) { tk.Replication = 0 }},
		{"negative payment", func(tk *market.Task) { tk.Payment = -2 }},
		{"bad difficulty", func(tk *market.Task) { tk.Difficulty = 2 }},
	}
	for _, tc := range badTasks {
		tk := validTask()
		tc.mut(&tk)
		if _, err := s.Apply(NewTaskPosted(tk)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestEventValidate(t *testing.T) {
	bad := []Event{
		{Kind: EventWorkerJoined},
		{Kind: EventWorkerLeft},
		{Kind: EventTaskPosted},
		{Kind: EventTaskClosed},
		{Kind: EventRoundClosed},
		{Kind: "mystery"},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("%s accepted without payload", e.Kind)
		}
	}
}

func TestSnapshotIsValidInstanceAndIsolated(t *testing.T) {
	s := mustState(t)
	we, _ := s.Apply(NewWorkerJoined(validWorker()))
	s.Apply(NewWorkerJoined(validWorker()))
	s.Apply(NewTaskPosted(validTask()))
	tk := validTask()
	tk.Category = 2
	tk.Payment = 9
	s.Apply(NewTaskPosted(tk))

	in, workerIDs, taskIDs := s.Snapshot()
	if err := in.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if len(workerIDs) != 2 || len(taskIDs) != 2 {
		t.Fatal("mapping sizes wrong")
	}
	if in.MaxPayment != 9 {
		t.Fatalf("MaxPayment = %v", in.MaxPayment)
	}
	// Mutating state after snapshot must not affect the snapshot.
	s.Apply(NewWorkerLeft(we.Worker.ID))
	if in.NumWorkers() != 2 {
		t.Fatal("snapshot shrank after state mutation")
	}
	// Profiles are immutable once applied (see State): snapshots share the
	// state's profile slices instead of copying them, and later applies
	// leave a snapshot's profiles as they were.
	in2, ids2, _ := s.Snapshot()
	live, _ := s.Worker(ids2[0])
	if &in2.Workers[0].Accuracy[0] != &live.Accuracy[0] {
		t.Fatal("snapshot copied a profile the state shares")
	}
	s.Apply(NewWorkerJoined(validWorker()))
	s.Apply(NewWorkerLeft(ids2[0]))
	if !reflect.DeepEqual(in2.Workers[0].Accuracy, validWorker().Accuracy) {
		t.Fatalf("snapshot profile changed under later applies: %v", in2.Workers[0].Accuracy)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	s := mustState(t)
	in, workerIDs, taskIDs := s.Snapshot()
	if in.NumWorkers() != 0 || in.NumTasks() != 0 || len(workerIDs) != 0 || len(taskIDs) != 0 {
		t.Fatal("empty snapshot not empty")
	}
}

func TestReplayReproducesState(t *testing.T) {
	s := mustState(t)
	var logEvents []Event
	apply := func(e Event) Event {
		t.Helper()
		applied, err := s.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		logEvents = append(logEvents, applied)
		return applied
	}
	w1 := apply(NewWorkerJoined(validWorker()))
	apply(NewWorkerJoined(validWorker()))
	t1 := apply(NewTaskPosted(validTask()))
	apply(NewTaskPosted(validTask()))
	apply(NewWorkerLeft(w1.Worker.ID))
	apply(NewTaskClosed(t1.Task.ID))
	apply(NewRoundClosed(0))

	replayed, err := Replay(3, logEvents)
	if err != nil {
		t.Fatal(err)
	}
	w, tk := s.Counts()
	rw, rtk := replayed.Counts()
	if w != rw || tk != rtk || s.Rounds() != replayed.Rounds() {
		t.Fatalf("replayed state differs: (%d,%d,%d) vs (%d,%d,%d)",
			w, tk, s.Rounds(), rw, rtk, replayed.Rounds())
	}
	inA, idsA, _ := s.Snapshot()
	inB, idsB, _ := replayed.Snapshot()
	if len(idsA) != len(idsB) {
		t.Fatal("worker id sets differ")
	}
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatal("worker ids differ after replay")
		}
	}
	if inA.NumEdges() != inB.NumEdges() {
		t.Fatal("snapshots structurally differ after replay")
	}
}

func TestReplayRejectsCorruptedHistory(t *testing.T) {
	// A leave for a worker that never joined must fail replay.
	_, err := Replay(3, []Event{NewWorkerLeft(7)})
	if err == nil || !strings.Contains(err.Error(), "replay event 0") {
		t.Fatalf("err = %v", err)
	}
}

// TestValidateWorkerProfileMessages pins every message of
// validateWorkerProfile and the order its checks fire in: each case also
// breaks every check listed after it.
func TestValidateWorkerProfileMessages(t *testing.T) {
	wide := func(n int) market.Worker {
		w := market.Worker{Capacity: 1, ReservationWage: 1, Specialties: []int{0, n - 1}}
		for c := 0; c < n; c++ {
			w.Accuracy = append(w.Accuracy, 0.7)
			w.Interest = append(w.Interest, 0.5)
		}
		return w
	}
	cases := []struct {
		ncat int
		mut  func(*market.Worker)
		want string
	}{
		{3, func(w *market.Worker) { w.Capacity = -1; w.Accuracy = nil; w.Specialties = nil },
			"platform: worker capacity -1 negative"},
		{3, func(w *market.Worker) { w.Accuracy = w.Accuracy[:2]; w.Interest[0] = 2; w.Specialties = nil },
			"platform: worker profile length mismatch (want 3 categories)"},
		{3, func(w *market.Worker) { w.Interest = append(w.Interest, 0.5) },
			"platform: worker profile length mismatch (want 3 categories)"},
		{3, func(w *market.Worker) { w.Accuracy[1] = 0.4; w.Accuracy[2] = 1; w.Interest[0] = -1 },
			"platform: worker accuracy[1]=0.4 outside [0.5,1)"},
		{3, func(w *market.Worker) { w.Accuracy[2] = 1 }, "platform: worker accuracy[2]=1 outside [0.5,1)"},
		{3, func(w *market.Worker) { w.Interest[2] = 1.5; w.Specialties = nil },
			"platform: worker interest[2]=1.5 outside [0,1]"},
		{3, func(w *market.Worker) { w.Specialties = []int{}; w.ReservationWage = -1 },
			"platform: worker has no specialties"},
		{3, func(w *market.Worker) { w.Specialties = []int{0, 0, 3}; w.ReservationWage = -1 },
			"platform: duplicate specialty 0"},
		{3, func(w *market.Worker) { w.Specialties = []int{2, 3, 2} }, "platform: specialty 3 out of range"},
		{3, func(w *market.Worker) { w.Specialties = []int{-1} }, "platform: specialty -1 out of range"},
		{3, func(w *market.Worker) { w.ReservationWage = -0.5 }, "platform: negative reservation wage"},
		{64, func(w *market.Worker) { w.Specialties = []int{63, 0, 63} }, "platform: duplicate specialty 63"},
		{64, func(w *market.Worker) { w.Specialties = []int{64} }, "platform: specialty 64 out of range"},
		{70, func(w *market.Worker) { w.Specialties = []int{69, 64, 69} }, "platform: duplicate specialty 69"},
		{70, func(w *market.Worker) { w.Specialties = []int{70} }, "platform: specialty 70 out of range"},
	}
	for _, c := range cases {
		w := wide(c.ncat)
		c.mut(&w)
		if err := validateWorkerProfile(&w, c.ncat); err == nil || err.Error() != c.want {
			t.Errorf("%d categories: got error %v, want %q", c.ncat, err, c.want)
		}
	}
	for _, ncat := range []int{3, 64, 70} {
		w := wide(ncat)
		if err := validateWorkerProfile(&w, ncat); err != nil {
			t.Fatalf("%d categories: valid worker rejected: %v", ncat, err)
		}
	}
	// A specialist in every category: past eight entries a map spills to
	// the heap.
	w := wide(30)
	w.Specialties = w.Specialties[:0]
	for c := 0; c < 30; c++ {
		w.Specialties = append(w.Specialties, c)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = validateWorkerProfile(&w, 30) }); allocs != 0 {
		t.Fatalf("validating a 30-specialty worker allocates %.0f times", allocs)
	}
}
