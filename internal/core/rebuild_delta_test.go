package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// churnSim is a market under churn for the refresh tests.  Entities carry
// platform IDs and arrivals take fresh, larger ones, so every snapshot
// lists entities in ID order with the arrivals last, as the platform's
// snapshots do.
type churnSim struct {
	r       *stats.RNG
	nC      int
	nextID  int
	workers []simEntity[market.Worker]
	tasks   []simEntity[market.Task]
	// prevW and prevT are the IDs of the last snapshot, the delta's base.
	prevW, prevT []int
}

type simEntity[T any] struct {
	id int
	v  T
}

func newChurnSim(seed uint64, nC, nW, nT int) *churnSim {
	s := &churnSim{r: stats.NewRNG(seed), nC: nC}
	s.addWorkers(nW)
	s.addTasks(nT, 10)
	return s
}

func (s *churnSim) id() int { s.nextID++; return s.nextID }

// addWorkers posts k workers with random profiles and one to three
// specialties, so rows take both the single-specialty and the merge path.
func (s *churnSim) addWorkers(k int) {
	for ; k > 0; k-- {
		w := market.Worker{
			Capacity:        1 + s.r.Intn(3),
			Accuracy:        make([]float64, s.nC),
			Interest:        make([]float64, s.nC),
			ReservationWage: 4 * s.r.Float64(),
		}
		for c := range w.Accuracy {
			w.Accuracy[c] = 0.5 + 0.49*s.r.Float64()
			w.Interest[c] = s.r.Float64()
		}
		w.Specialties = s.r.Perm(s.nC)[:1+s.r.Intn(min(3, s.nC))]
		s.workers = append(s.workers, simEntity[market.Worker]{s.id(), w})
	}
}

// addTasks posts k tasks paying below maxPay.
func (s *churnSim) addTasks(k int, maxPay float64) {
	for ; k > 0; k-- {
		s.addTask(s.r.Intn(s.nC), maxPay*s.r.Float64())
	}
}

func (s *churnSim) addTask(c int, pay float64) {
	t := market.Task{Category: c, Replication: 1 + s.r.Intn(3), Payment: pay, Difficulty: s.r.Float64()}
	s.tasks = append(s.tasks, simEntity[market.Task]{s.id(), t})
}

// maxPay is the largest task payment, the snapshot's MaxPayment.
func (s *churnSim) maxPay() float64 {
	m := 0.0
	for _, t := range s.tasks {
		m = max(m, t.v.Payment)
	}
	return m
}

// removeWorkers departs k random workers.
func (s *churnSim) removeWorkers(k int) {
	for ; k > 0 && len(s.workers) > 0; k-- {
		i := s.r.Intn(len(s.workers))
		s.workers = slices.Delete(s.workers, i, i+1)
	}
}

// removeTasks closes k random tasks other than the best paid, so
// MaxPayment stays put.
func (s *churnSim) removeTasks(k int) {
	for ; k > 0 && len(s.tasks) > 1; k-- {
		top := s.maxPay()
		i := s.r.Intn(len(s.tasks))
		if s.tasks[i].v.Payment == top {
			continue
		}
		s.tasks = slices.Delete(s.tasks, i, i+1)
	}
}

// removeTasksWhere closes every task keep rejects.
func (s *churnSim) removeTasksWhere(drop func(t *market.Task) bool) {
	s.tasks = slices.DeleteFunc(s.tasks, func(e simEntity[market.Task]) bool { return drop(&e.v) })
}

// snapshot returns the market as an instance, in ID order, with the honest
// delta against the previous snapshot (nil for the first).
func (s *churnSim) snapshot() (*market.Instance, *Delta) {
	slices.SortFunc(s.workers, func(a, b simEntity[market.Worker]) int { return a.id - b.id })
	slices.SortFunc(s.tasks, func(a, b simEntity[market.Task]) int { return a.id - b.id })
	in := &market.Instance{Name: "churn", NumCategories: s.nC, MaxPayment: s.maxPay()}
	wIDs, tIDs := make([]int, len(s.workers)), make([]int, len(s.tasks))
	for i, e := range s.workers {
		w := e.v
		w.ID = i
		in.Workers = append(in.Workers, w)
		wIDs[i] = e.id
	}
	for j, e := range s.tasks {
		t := e.v
		t.ID = j
		in.Tasks = append(in.Tasks, t)
		tIDs[j] = e.id
	}
	var d *Delta
	if s.prevW != nil {
		d = &Delta{}
		d.PrevWorker, d.AddedWorkers, d.RemovedWorkers = diffIDs(s.prevW, wIDs)
		d.PrevTask, d.AddedTasks, d.RemovedTasks = diffIDs(s.prevT, tIDs)
	}
	s.prevW, s.prevT = wIDs, tIDs
	return in, d
}

// diffIDs is the delta encoding of one side: prev[i] is the previous index
// of current entity i or -1, added the current indices of arrivals,
// removed the previous indices of departures.
func diffIDs(prevIDs, curIDs []int) (prev, added, removed []int32) {
	at := map[int]int32{}
	for i, id := range prevIDs {
		at[id] = int32(i)
	}
	kept := map[int]bool{}
	prev = make([]int32, len(curIDs))
	for j, id := range curIDs {
		if q, ok := at[id]; ok {
			prev[j] = q
			kept[id] = true
		} else {
			prev[j] = -1
			added = append(added, int32(j))
		}
	}
	for i, id := range prevIDs {
		if !kept[id] {
			removed = append(removed, int32(i))
		}
	}
	return prev, added, removed
}

// refreshChains carries one previous problem per fan-out through a churn
// sequence and checks each rebuild against NewProblem.
type refreshChains struct {
	prev map[int]*Problem
}

var refreshProcs = []int{1, 3}

// check rebuilds every chain for in under d and fails unless the result
// equals NewProblem field for field and took the refresh path exactly
// when wantRefresh says so.
func (c *refreshChains) check(t *testing.T, label string, in *market.Instance, params benefit.Params, d *Delta, wantRefresh bool) {
	t.Helper()
	ref, err := NewProblem(in, params)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, procs := range refreshProcs {
		got, err := rebuildProblemProcs(c.prev[procs], in, params, d, procs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		c.prev[procs] = got
		name := label + "/procs=" + strconv.Itoa(procs)
		if got.bs.refreshed != wantRefresh {
			t.Fatalf("%s: refreshed = %v, want %v", name, got.bs.refreshed, wantRefresh)
		}
		if got.In != in || got.Model.Params() != params {
			t.Fatalf("%s: problem not rebound to the new instance and params", name)
		}
		assertSameProblem(t, name, ref, got)
	}
}

// TestRebuildProblemDeltaMatchesNewProblem drives churn sequences through
// RebuildProblem's delta path.  After every step the result must equal
// NewProblem of the same snapshot, field for field, at two fan-outs — and
// the step must have taken the path its shape calls for, so the test
// cannot pass by always rebuilding.
func TestRebuildProblemDeltaMatchesNewProblem(t *testing.T) {
	params := benefit.DefaultParams()
	s := newChurnSim(1, 4, 40, 30)
	c := &refreshChains{prev: map[int]*Problem{}}
	step := func(label string, want bool) {
		t.Helper()
		in, d := s.snapshot()
		c.check(t, label, in, params, d, want)
	}

	step("initial", false)
	step("zero-churn", true)
	s.addWorkers(3)
	s.addTasks(4, s.maxPay())
	step("arrivals", true)
	s.removeWorkers(5)
	s.removeTasks(6)
	step("departures", true)
	s.addWorkers(2)
	s.removeWorkers(2)
	s.addTasks(3, s.maxPay())
	s.removeTasks(3)
	step("both", true)

	// Empty a category that does not hold the best-paid task, then refill it.
	top := s.maxPay()
	empty := -1
	for _, e := range s.tasks {
		if e.v.Payment == top {
			empty = (e.v.Category + 1) % s.nC
		}
	}
	s.removeTasksWhere(func(t *market.Task) bool { return t.Category == empty })
	step("category-empties", true)
	for k := 0; k < 3; k++ {
		s.addTask(empty, top*s.r.Float64())
	}
	step("category-refills", true)

	s.addTask(0, 2*top)
	step("maxpayment-up", false)
	step("after-maxpayment-up", true)
	s.removeTasksWhere(func(t *market.Task) bool { return t.Payment == 2*top })
	step("maxpayment-down", false)

	params = benefit.Params{Lambda: 0.3, Beta: 0.7, Combiner: benefit.NashProduct}
	step("params-change", false)
	s.addWorkers(1)
	step("after-params-change", true)

	saved := s.workers
	s.workers = nil
	step("every-worker-leaves", true)
	s.workers = saved // they return as if never gone: survivors of an empty side are arrivals
	step("workers-return", true)

	s.removeTasksWhere(func(*market.Task) bool { return true })
	step("every-task-closes", false) // MaxPayment falls to 0
	s.addTasks(5, 8)
	step("tasks-reopen", false)
	step("zero-churn-again", true)

	// Random churn: arrivals and departures at random rates on both sides,
	// a MaxPayment change now and then.
	for k := 0; k < 60; k++ {
		before := s.maxPay()
		s.removeWorkers(s.r.Intn(4))
		s.removeTasks(s.r.Intn(4))
		s.addWorkers(s.r.Intn(4))
		s.addTasks(s.r.Intn(4), before)
		if s.r.Intn(10) == 0 {
			s.addTask(s.r.Intn(s.nC), before+1)
		}
		if len(s.workers) == 0 {
			s.addWorkers(5)
		}
		step(fmt.Sprintf("random-%d", k), s.maxPay() == before)
	}
}

// TestRebuildProblemHostileDeltas hands RebuildProblem deltas that do not
// describe the rebuild — stale, shifted, the wrong length, arrivals
// before survivors, a survivor whose profile changed.  Each must take the
// full path and still equal NewProblem; the honest delta that follows
// must refresh again.
func TestRebuildProblemHostileDeltas(t *testing.T) {
	params := benefit.DefaultParams()
	s := newChurnSim(2, 3, 30, 24)
	c := &refreshChains{prev: map[int]*Problem{}}
	in, d := s.snapshot()
	c.check(t, "initial", in, params, d, false)

	// The first worker and task leave, so the delta of this step shifts
	// every index: a later snapshot without churn must not match it.
	s.workers, s.tasks = s.workers[1:], s.tasks[1:]
	in, stale := s.snapshot()
	c.check(t, "churn", in, params, stale, true)
	// A twin of the first task arrives: two survivors with identical
	// scoring inputs, which only the order check tells apart.
	s.tasks = append(s.tasks, simEntity[market.Task]{s.id(), s.tasks[0].v})
	in, d = s.snapshot()
	c.check(t, "twin-arrives", in, params, d, true)

	hostile := []struct {
		name  string
		apply func(in *market.Instance, d *Delta) (*market.Instance, *Delta)
	}{
		{"two-rounds-stale", func(in *market.Instance, _ *Delta) (*market.Instance, *Delta) {
			return in, stale
		}},
		{"shifted-indices", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			for j := range d.PrevTask {
				d.PrevTask[j]++
			}
			return in, d
		}},
		{"swapped-survivors", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			d.PrevWorker[0], d.PrevWorker[1] = d.PrevWorker[1], d.PrevWorker[0]
			return in, d
		}},
		{"swapped-twins", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			last := len(d.PrevTask) - 1
			d.PrevTask[0], d.PrevTask[last] = d.PrevTask[last], d.PrevTask[0]
			return in, d
		}},
		{"short-worker-side", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			d.PrevWorker = d.PrevWorker[:len(d.PrevWorker)-1]
			return in, d
		}},
		{"long-task-side", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			d.PrevTask = append(d.PrevTask, -1)
			return in, d
		}},
		{"arrival-before-survivors", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			// A task with the smallest ID: honest delta, but index 0 arrives.
			s.tasks = append(s.tasks, simEntity[market.Task]{-1, s.tasks[0].v})
			return s.snapshot()
		}},
		{"survivor-interest-changed", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			w := &in.Workers[len(in.Workers)/2]
			w.Interest = slices.Clone(w.Interest)
			w.Interest[w.Specialties[0]] /= 2
			return in, d
		}},
		{"survivor-specialties-changed", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			w := &in.Workers[0]
			w.Specialties = []int{(w.Specialties[0] + 1) % in.NumCategories}
			return in, d
		}},
		{"survivor-difficulty-changed", func(in *market.Instance, d *Delta) (*market.Instance, *Delta) {
			in.Tasks[1].Difficulty /= 2
			return in, d
		}},
	}
	for _, h := range hostile {
		in, d := h.apply(s.snapshot())
		c.check(t, h.name, in, params, d, false)
		// The next honest snapshot refreshes from the hostile round's
		// (fully rebuilt) problem.
		s.prevW, s.prevT = nil, nil
		for _, e := range s.workers {
			s.prevW = append(s.prevW, e.id)
		}
		for _, e := range s.tasks {
			s.prevT = append(s.prevT, e.id)
		}
		if h.name == "survivor-interest-changed" || h.name == "survivor-specialties-changed" ||
			h.name == "survivor-difficulty-changed" {
			// The sim still holds the unmodified profile, which now differs
			// from the problem's: the honest delta must not refresh either.
			in, d = s.snapshot()
			c.check(t, h.name+"/recover", in, params, d, false)
		}
		in, d = s.snapshot()
		c.check(t, h.name+"/honest", in, params, d, true)
	}
}

// FuzzRebuildDelta decodes a churn script — per step, an op byte and an
// argument byte — and replays it through RebuildProblem.  Some ops corrupt
// the honest delta.  Whatever the delta, every rebuild must equal
// NewProblem; and an honest delta with MaxPayment and params unchanged
// must take the refresh path.
func FuzzRebuildDelta(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 1, 2, 2, 4, 3, 1})
	f.Add(uint64(2), []byte{4, 0, 5, 0, 6, 0, 7, 0, 8, 1})
	f.Add(uint64(3), []byte{1, 255, 0, 7, 3, 255, 2, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		s := newChurnSim(seed, 1+int(seed%4), int(seed%7), int(seed/7%6))
		params := benefit.DefaultParams()
		c := &refreshChains{prev: map[int]*Problem{}}
		for k := 0; k+1 < len(script); k += 2 {
			op, arg := script[k]%10, int(script[k+1])
			before := s.maxPay()
			honest := true
			switch op {
			case 0:
				s.addWorkers(arg % 5)
			case 1:
				s.removeWorkers(arg % 5)
			case 2:
				s.addTasks(arg%5, before)
			case 3:
				s.removeTasks(arg % 5)
			case 4:
				s.addTask(arg%s.nC, float64(arg))
			case 5:
				s.removeTasksWhere(func(t *market.Task) bool { return t.Category == arg%s.nC })
			case 6:
				params.Lambda = float64(arg%3) / 2
			case 9:
				// A survivor's profile changes, which no platform event does.
				if len(s.tasks) > 0 {
					s.tasks[arg%len(s.tasks)].v.Difficulty = float64(arg%5) / 4
					honest = false
				}
			}
			in, d := s.snapshot()
			if d != nil && (op == 7 || op == 8) {
				honest = false
				switch {
				case op == 7 && len(d.PrevWorker) > 0:
					d.PrevWorker[arg%len(d.PrevWorker)] = int32(arg%9) - 1
				case op == 8 && len(d.PrevTask) > 0:
					d.PrevTask[arg%len(d.PrevTask)] = int32(arg%9) - 1
				}
			}
			label := fmt.Sprintf("step %d op %d", k/2, op)
			ref, err := NewProblem(in, params)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, procs := range refreshProcs {
				prev := c.prev[procs]
				wantRefresh := honest && d != nil && prev != nil &&
					prev.Model.Params() == params && prev.In.MaxPayment == in.MaxPayment
				got, err := rebuildProblemProcs(prev, in, params, d, procs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.prev[procs] = got
				if wantRefresh && !got.bs.refreshed {
					t.Fatalf("%s procs=%d: honest delta took the full path", label, procs)
				}
				assertSameProblem(t, label, ref, got)
			}
		}
	})
}

// edgeBytes sums the edge data of every per-edge slice p retains — any
// slice field of Problem or its build scratch at least half the edge count
// long, so a per-edge array added later is counted too.  It counts
// lengths: grow's 1/8 capacity headroom comes on top.
func edgeBytes(p *Problem) int {
	total := 0
	for _, v := range []reflect.Value{reflect.ValueOf(p).Elem(), reflect.ValueOf(&p.bs).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Slice && 2*f.Len() >= p.NumEdges() {
				total += f.Len() * int(f.Type().Elem().Size())
			}
		}
	}
	return total
}

// TestProblemLayoutBytesPerEdge guards the columnar layout: through a
// 400×300 market refreshed three times under churn, the per-edge arrays a
// Problem retains — W, T and M plus the spare T and M the next refresh
// writes into — stay within 32 B per edge, 36 B once AdjT lays out the
// task adjacency, and a greedy round never lays it out.
func TestProblemLayoutBytesPerEdge(t *testing.T) {
	params := benefit.DefaultParams()
	s := newChurnSim(3, 8, 400, 300)
	in, _ := s.snapshot()
	p := MustNewProblem(in, params)
	for k := 0; k < 3; k++ {
		s.removeWorkers(4)
		s.removeTasks(3)
		s.addWorkers(4)
		s.addTasks(3, s.maxPay())
		in, d := s.snapshot()
		var err error
		if p, err = RebuildProblem(p, in, params, d); err != nil {
			t.Fatal(err)
		}
		if !p.bs.refreshed {
			t.Fatalf("refresh %d scored every edge", k)
		}
		if _, _, err := RunDeltaCtx(context.Background(), p, Greedy{}, d, stats.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		if p.adjT != nil {
			t.Fatalf("refresh %d: a greedy round laid out AdjT", k)
		}
		if b, e := edgeBytes(p), p.NumEdges(); b > 32*e {
			t.Fatalf("refresh %d: %d B over %d edges = %.1f B/edge, want <= 32", k, b, e, float64(b)/float64(e))
		}
	}
	p.AdjT(0)
	if b, e := edgeBytes(p), p.NumEdges(); b > 36*e {
		t.Fatalf("with AdjT: %d B over %d edges = %.1f B/edge, want <= 36", b, e, float64(b)/float64(e))
	}
}
