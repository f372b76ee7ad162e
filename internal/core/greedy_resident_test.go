package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// residentRun drives a churn sequence through RebuildProblem and one
// pinned greedy per weight kind, and holds every solve to greedyInto on
// NewProblem of the same snapshot: the selection in take order and the
// residual capacities.
type residentRun struct {
	t      testing.TB
	s      *churnSim
	params benefit.Params
	coarse bool // round every arrival's scoring inputs onto a coarse grid
	prev   *Problem
	ws     []*Workspace // per allWeightKinds
	oracle *Workspace

	// Solves the resident order served, and those of them that updated it
	// by a refresh's correspondence and that compacted it.
	resident, updates, compactions int
}

func newResidentRun(t testing.TB, seed uint64, coarse bool, nC, nW, nT int) *residentRun {
	r := &residentRun{t: t, s: newChurnSim(seed, nC, nW, nT), params: benefit.DefaultParams(), coarse: coarse, oracle: NewWorkspace()}
	for range allWeightKinds {
		r.ws = append(r.ws, NewWorkspace())
	}
	r.coarsen(0, 0)
	return r
}

// coarsen rounds the scoring inputs of workers from w on and tasks from t
// on onto a few levels each, so that many edges tie on every weight kind.
func (r *residentRun) coarsen(w, t int) {
	if !r.coarse {
		return
	}
	level := func(v, step float64) float64 { return step * math.Round(v/step) }
	for i := w; i < len(r.s.workers); i++ {
		v := &r.s.workers[i].v
		for c := range v.Accuracy {
			v.Accuracy[c] = 0.5 + 0.25*math.Floor((v.Accuracy[c]-0.5)/0.25)
			v.Interest[c] = level(v.Interest[c], 0.5)
		}
		v.ReservationWage = level(v.ReservationWage, 2)
	}
	for j := t; j < len(r.s.tasks); j++ {
		v := &r.s.tasks[j].v
		v.Payment, v.Difficulty = level(v.Payment, 5), level(v.Difficulty, 0.5)
	}
}

func (r *residentRun) addWorkers(k int) {
	n := len(r.s.workers)
	r.s.addWorkers(k)
	r.coarsen(n, len(r.s.tasks))
}

func (r *residentRun) addTasks(k int, maxPay float64) {
	n := len(r.s.tasks)
	r.s.addTasks(k, maxPay)
	r.coarsen(len(r.s.workers), n)
}

// step snapshots the market, rebuilds the carried problem from it and
// checks the solves.  It reports whether every kind's solve was served
// by the resident order.
func (r *residentRun) step(label string) bool {
	in, d := r.s.snapshot()
	p, err := RebuildProblem(r.prev, in, r.params, d)
	if err != nil {
		r.t.Fatalf("%s: %v", label, err)
	}
	r.prev = p
	return r.check(label, p)
}

// check solves p through every kind's pinned greedy and compares it with
// the one-shot greedy on a fresh build.
func (r *residentRun) check(label string, p *Problem) bool {
	r.t.Helper()
	ref, err := NewProblem(p.In, r.params)
	if err != nil {
		r.t.Fatalf("%s: %v", label, err)
	}
	served := true
	for k, kind := range allWeightKinds {
		want := slices.Clone(greedyInto(ref, kind, r.oracle))
		wantW, wantT := slices.Clone(r.oracle.capW), slices.Clone(r.oracle.capT)
		ws := r.ws[k]
		wasLaid, tail := ws.res.laid && ws.res.last == p.bs.from, len(ws.res.tail)
		got, err := Greedy{Kind: kind, WS: ws}.Solve(p, nil)
		if err != nil {
			r.t.Fatalf("%s/%v: %v", label, kind, err)
		}
		if !slices.Equal(got, want) {
			k := 0
			for k < len(got) && k < len(want) && got[k] == want[k] {
				k++
			}
			r.t.Fatalf("%s/%v: %d edges: selections diverge at position %d of %d (one-shot has %d)",
				label, kind, p.NumEdges(), k, len(got), len(want))
		}
		if !slices.Equal(ws.capW, wantW) || !slices.Equal(ws.capT, wantT) {
			r.t.Fatalf("%s/%v: residual capacities differ from the one-shot greedy's", label, kind)
		}
		served = served && ws.res.laid
		if ws.res.laid {
			r.resident++
			if wasLaid && p.bs.refreshed {
				r.updates++
				if tail > 0 && len(ws.res.tail) == 0 {
					r.compactions++
				}
			}
		}
	}
	return served
}

// TestGreedyResidentMatchesOneShot holds the pinned greedy's resident
// order to the one-shot greedy through scripted and random churn: weight
// ties from coarse profiles, a category that empties and refills, a
// MaxPayment change (a full rebuild, so the order is laid out again), the
// whole market leaving and returning, arrivals-only and departures-only
// rounds, a repeat solve of one build, and a market dense enough that the
// one-shot scan serves it.  Every step must also take the path its shape
// calls for, so the test cannot pass by always solving one-shot.
func TestGreedyResidentMatchesOneShot(t *testing.T) {
	for _, coarse := range []bool{false, true} {
		t.Run(fmt.Sprintf("coarse=%v", coarse), func(t *testing.T) {
			r := newResidentRun(t, 5, coarse, 3, 60, 45)
			s := r.s
			expect := func(label string, want bool) {
				t.Helper()
				if got := r.step(label); got != want {
					t.Fatalf("%s: served by the resident order = %v, want %v", label, got, want)
				}
			}
			expect("cold", false)
			expect("zero-churn", true)
			if !r.check("repeat", r.prev) {
				t.Fatal("repeat solve of one build left the resident order")
			}
			r.addWorkers(4)
			r.addTasks(3, s.maxPay())
			expect("arrivals-only", true)
			s.removeWorkers(5)
			s.removeTasks(4)
			expect("departures-only", true)

			top := s.maxPay()
			empty := -1
			for _, e := range s.tasks {
				if e.v.Payment == top {
					empty = (e.v.Category + 1) % s.nC
				}
			}
			s.removeTasksWhere(func(t *market.Task) bool { return t.Category == empty })
			expect("category-empties", true)
			for k := 0; k < 4; k++ {
				s.addTask(empty, top*s.r.Float64())
			}
			r.coarsen(len(s.workers), len(s.tasks)-4)
			expect("category-refills", true)

			s.addTask(0, top+5)
			expect("maxpayment-up", true)
			if r.prev.bs.refreshed {
				t.Fatal("a MaxPayment change refreshed the problem")
			}
			expect("after-maxpayment-up", true)

			// Capacity is no scoring input, so this is still a refresh,
			// but greedy could now take most edges.
			saved := make([]int, len(s.workers))
			for i := range s.workers {
				saved[i] = s.workers[i].v.Capacity
				s.workers[i].v.Capacity = 1 << 20
			}
			for j := range s.tasks {
				s.tasks[j].v.Replication += 1 << 20
			}
			expect("dense", false)
			for i := range s.workers {
				s.workers[i].v.Capacity = saved[i]
			}
			for j := range s.tasks {
				s.tasks[j].v.Replication -= 1 << 20
			}
			expect("sparse-again", true)

			s.workers, s.tasks = nil, nil
			expect("market-leaves", false)
			r.addWorkers(60)
			r.addTasks(45, 10)
			expect("market-refills", true)
			expect("zero-churn-again", true)

			for k := 0; k < 60; k++ {
				before := s.maxPay()
				s.removeWorkers(s.r.Intn(5))
				s.removeTasks(s.r.Intn(5))
				r.addWorkers(s.r.Intn(5))
				r.addTasks(s.r.Intn(5), before)
				if s.r.Intn(15) == 0 {
					s.addTask(s.r.Intn(s.nC), before+5)
				}
				r.step(fmt.Sprintf("random-%d", k))
			}
			if r.updates == 0 || r.compactions == 0 {
				t.Fatalf("%d updates and %d compactions over the run, want some of each", r.updates, r.compactions)
			}
		})
	}
}

// FuzzGreedyResident decodes a churn script from the input and holds the
// pinned greedy to the one-shot greedy after every step.  The first byte
// picks the seed and whether profiles are coarse; each later byte is one
// operation, its low three bits the kind and the rest its size: worker or
// task arrivals or departures, a snapshot and solve, a repeat solve, a
// MaxPayment raise, or a category emptied.  The market starts at 80
// workers and 60 tasks, which keeps greedy's possible takes under
// 1/residentDenseDiv of the edges through most scripts, so the resident
// order, not the one-shot scan, serves the solves.
func FuzzGreedyResident(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 4, 4, 8, 4, 11, 4, 5, 4})
	f.Add([]byte{2, 4, 4, 6, 4, 4, 7, 4, 15, 4, 0x30, 0x31, 4, 0x1a, 0x1b, 4, 5})
	f.Add([]byte{3, 4, 4, 0xf9, 0xfb, 4, 0xf8, 0xfa, 4, 4, 0xff, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		r := newResidentRun(t, uint64(data[0]>>1), data[0]&1 == 1, 3, 80, 60)
		s := r.s
		for i, b := range data[1:] {
			k := int(b >> 3)
			switch b & 7 {
			case 0:
				r.addWorkers(1 + k%8)
			case 1:
				s.removeWorkers(k % 8)
			case 2:
				r.addTasks(1+k%8, s.maxPay())
			case 3:
				s.removeTasks(k % 8)
			case 4:
				r.step(fmt.Sprintf("op-%d", i))
			case 5:
				if r.prev != nil {
					r.check(fmt.Sprintf("op-%d-repeat", i), r.prev)
				}
			case 6:
				s.addTask(k%s.nC, s.maxPay()+1)
			case 7:
				s.removeTasksWhere(func(t *market.Task) bool { return t.Category == k%s.nC })
			}
		}
		r.step("final")
	})
}

// TestGreedyResidentPanicIsContained pins the resident order's fault
// containment: a panic midway through an update reaches RunDeltaCtx as an
// error and leaves the order stale, so the next round lays it out afresh
// and matches the one-shot greedy.  A problem from another lineage is
// solved one-shot and lays nothing out.
func TestGreedyResidentPanicIsContained(t *testing.T) {
	r := newResidentRun(t, 7, false, 3, 60, 45)
	r.step("cold")
	r.step("layout")
	ws := r.ws[0] // MutualWeight
	if !ws.res.laid {
		t.Fatal("the second round did not lay the order out")
	}

	r.s.removeTasks(3)
	r.addTasks(3, r.s.maxPay())
	in, d := r.s.snapshot()
	p, err := RebuildProblem(r.prev, in, r.params, d)
	if err != nil {
		t.Fatal(err)
	}
	r.prev = p
	// Workers remap first; the task side's slot map, cut short, then
	// panics halfway through the update.
	ws.res.tasks.slotOf = ws.res.tasks.slotOf[:1]
	_, _, err = RunDeltaCtx(context.Background(), p, Greedy{WS: ws}, d, stats.NewRNG(1))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("RunDeltaCtx returned %v, want the contained panic", err)
	}
	if ws.res.laid {
		t.Fatal("the order counts as up to date after a panic midway through its update")
	}

	r.addWorkers(2)
	r.step("after-panic")
	if !ws.res.laid {
		t.Fatal("the round after the panic did not lay the order out afresh")
	}

	// Another lineage: a problem rebuilt from a build this workspace never
	// solved is solved one-shot.  The next round of the first lineage,
	// which this workspace did not solve last either, is too; the round
	// after it lays the order out afresh.
	other := newChurnSim(8, 3, 60, 45)
	in, _ = other.snapshot()
	q := MustNewProblem(in, r.params)
	other.addWorkers(3)
	in, d = other.snapshot()
	if q, err = RebuildProblem(q, in, r.params, d); err != nil || !q.bs.refreshed {
		t.Fatalf("rebuild of the other lineage: %v, refreshed %v", err, q.bs.refreshed)
	}
	for _, step := range []struct {
		label string
		run   func()
		laid  bool
	}{
		{"other-lineage", func() { r.check("other-lineage", q) }, false},
		{"back", func() { r.step("back") }, false},
		{"back-again", func() { r.addTasks(2, r.s.maxPay()); r.step("back-again") }, true},
	} {
		step.run()
		if ws.res.laid != step.laid {
			t.Fatalf("%s: served by the resident order = %v, want %v", step.label, ws.res.laid, step.laid)
		}
	}
}

// workspaceEdgeBytes is edgeBytes for a workspace: every slice it retains,
// its resident order's included, at least half the edge count long,
// counted by capacity (buffers grow with headroom).
func workspaceEdgeBytes(ws *Workspace, edges int) int {
	total := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				walk(f)
			case reflect.Slice:
				if 2*f.Cap() >= edges {
					total += f.Cap() * int(f.Type().Elem().Size())
				}
			}
		}
	}
	walk(reflect.ValueOf(ws).Elem())
	return total
}

// TestServedGreedyWorkspaceBytesPerEdge bounds what the served greedy's
// workspace keeps per edge once the resident order serves, through a
// 400×300 market refreshed under churn: within 28 B per edge, the
// 12-byte lists (key and worker slot) and the spare pair a compaction
// writes into, with grow's 1/8 headroom.  The workspace must never hold
// the one-shot scan's per-edge buffers (20 B): the cold round's one-shot
// solve and the layout borrow them from the package pool.
func TestServedGreedyWorkspaceBytesPerEdge(t *testing.T) {
	params := benefit.DefaultParams()
	solver, err := ByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	ws := solver.(Greedy).WS
	s := newChurnSim(3, 8, 400, 300)
	var p *Problem
	for k := 0; k < 12; k++ {
		s.removeWorkers(4)
		s.removeTasks(3)
		s.addWorkers(4)
		s.addTasks(3, s.maxPay())
		in, d := s.snapshot()
		if p, err = RebuildProblem(p, in, params, d); err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunDeltaCtx(context.Background(), p, solver, d, stats.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		if ws.keys != nil || ws.entries != nil {
			t.Fatalf("round %d: the pinned workspace holds the one-shot scan's per-edge buffers", k)
		}
		if k == 0 {
			continue
		}
		if !ws.res.laid || !p.bs.refreshed {
			t.Fatalf("round %d: refreshed %v, served by the resident order %v", k, p.bs.refreshed, ws.res.laid)
		}
		if b, e := workspaceEdgeBytes(ws, p.NumEdges()), p.NumEdges(); b > 28*e {
			t.Fatalf("round %d: %d B over %d edges = %.1f B/edge, want <= 28", k, b, e, float64(b)/float64(e))
		}
	}
}
