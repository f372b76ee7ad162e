package market

import (
	"strings"
	"testing"
)

// tinyInstance builds a small hand-constructed valid instance used across
// the package tests.
func tinyInstance() *Instance {
	return &Instance{
		Name:          "tiny",
		NumCategories: 2,
		Workers: []Worker{
			{
				ID: 0, Capacity: 2,
				Accuracy:        []float64{0.9, 0.6},
				Interest:        []float64{0.8, 0.1},
				Specialties:     []int{0},
				ReservationWage: 1,
			},
			{
				ID: 1, Capacity: 1,
				Accuracy:        []float64{0.55, 0.85},
				Interest:        []float64{0.2, 0.9},
				Specialties:     []int{1},
				ReservationWage: 2,
			},
		},
		Tasks: []Task{
			{ID: 0, Category: 0, Replication: 1, Payment: 5, Difficulty: 0.2},
			{ID: 1, Category: 1, Replication: 2, Payment: 3, Difficulty: 0.4},
		},
		MaxPayment: 5,
	}
}

func TestTinyInstanceValid(t *testing.T) {
	if err := tinyInstance().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceCounters(t *testing.T) {
	in := tinyInstance()
	if in.NumWorkers() != 2 || in.NumTasks() != 2 {
		t.Fatal("counts wrong")
	}
	if in.TotalSlots() != 3 {
		t.Fatalf("slots = %d", in.TotalSlots())
	}
	if in.TotalCapacity() != 3 {
		t.Fatalf("capacity = %d", in.TotalCapacity())
	}
	// Worker 0 accepts cat 0 (1 task), worker 1 accepts cat 1 (1 task).
	if in.NumEdges() != 2 {
		t.Fatalf("edges = %d", in.NumEdges())
	}
}

func TestAcceptsCategory(t *testing.T) {
	in := tinyInstance()
	if !in.Workers[0].AcceptsCategory(0) || in.Workers[0].AcceptsCategory(1) {
		t.Fatal("specialty check wrong")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Instance)
		want string
	}{
		{"no categories", func(in *Instance) { in.NumCategories = 0 }, "category"},
		{"non-dense worker id", func(in *Instance) { in.Workers[1].ID = 5 }, "ID"},
		{"negative capacity", func(in *Instance) { in.Workers[0].Capacity = -1 }, "capacity"},
		{"short accuracy", func(in *Instance) { in.Workers[0].Accuracy = in.Workers[0].Accuracy[:1] }, "length"},
		{"accuracy below half", func(in *Instance) { in.Workers[0].Accuracy[0] = 0.4 }, "accuracy"},
		{"accuracy at one", func(in *Instance) { in.Workers[0].Accuracy[0] = 1.0 }, "accuracy"},
		{"interest negative", func(in *Instance) { in.Workers[0].Interest[0] = -0.1 }, "interest"},
		{"no specialties", func(in *Instance) { in.Workers[0].Specialties = nil }, "specialties"},
		{"specialty out of range", func(in *Instance) { in.Workers[0].Specialties = []int{9} }, "specialty"},
		{"duplicate specialty", func(in *Instance) { in.Workers[0].Specialties = []int{0, 0} }, "duplicate"},
		{"negative wage", func(in *Instance) { in.Workers[0].ReservationWage = -1 }, "wage"},
		{"non-dense task id", func(in *Instance) { in.Tasks[0].ID = 3 }, "ID"},
		{"bad category", func(in *Instance) { in.Tasks[0].Category = 7 }, "category"},
		{"zero replication", func(in *Instance) { in.Tasks[0].Replication = 0 }, "replication"},
		{"negative payment", func(in *Instance) { in.Tasks[0].Payment = -1 }, "payment"},
		{"difficulty above one", func(in *Instance) { in.Tasks[0].Difficulty = 1.5 }, "difficulty"},
		{"stale max payment", func(in *Instance) { in.MaxPayment = 1 }, "MaxPayment"},
	}
	for _, m := range mutations {
		in := tinyInstance()
		m.mut(in)
		err := in.Validate()
		if err == nil {
			t.Errorf("%s: validation passed", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	in := tinyInstance()
	s := in.ComputeStats()
	if s.Workers != 2 || s.Tasks != 2 || s.Edges != 2 || s.TotalSlots != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanPayment != 4 {
		t.Fatalf("mean payment = %v", s.MeanPayment)
	}
	// Specialty accuracies are 0.9 and 0.85 → mean 0.875.
	if s.MeanAccuracy != 0.875 {
		t.Fatalf("mean accuracy = %v", s.MeanAccuracy)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	in := &Instance{Name: "empty", NumCategories: 1}
	s := in.ComputeStats()
	if s.Workers != 0 || s.Tasks != 0 || s.MeanPayment != 0 || s.MeanAccuracy != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestValidateErrorMessages pins every Validate error byte for byte, and
// that a specialty shared by different workers is no duplicate.
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		mut  func(*Instance)
		want string
	}{
		{func(in *Instance) { in.NumCategories = 0 }, "market: instance needs at least one category"},
		{func(in *Instance) { in.Workers[1].ID = 5 }, "market: worker 1 has ID 5 (must be dense)"},
		{func(in *Instance) { in.Workers[0].Capacity = -1 }, "market: worker 0 has negative capacity"},
		{func(in *Instance) { in.Workers[1].Interest = in.Workers[1].Interest[:1] }, "market: worker 1 profile length mismatch"},
		{func(in *Instance) { in.Workers[0].Accuracy[1] = 0.4 }, "market: worker 0 accuracy[1]=0.4 outside [0.5,1)"},
		{func(in *Instance) { in.Workers[1].Interest[0] = 1.5 }, "market: worker 1 interest[0]=1.5 outside [0,1]"},
		{func(in *Instance) { in.Workers[1].Specialties = nil }, "market: worker 1 has no specialties"},
		{func(in *Instance) { in.Workers[0].Specialties = []int{0, -1} }, "market: worker 0 specialty -1 out of range"},
		{func(in *Instance) { in.Workers[1].Specialties = []int{1, 2} }, "market: worker 1 specialty 2 out of range"},
		{func(in *Instance) { in.Workers[0].Specialties = []int{0, 1, 0} }, "market: worker 0 has duplicate specialty 0"},
		{func(in *Instance) { in.Workers[1].Specialties = []int{0, 1, 1} }, "market: worker 1 has duplicate specialty 1"},
		{func(in *Instance) { in.Workers[1].ReservationWage = -2 }, "market: worker 1 has negative reservation wage"},
		{func(in *Instance) { in.Tasks[1].ID = 0 }, "market: task 1 has ID 0 (must be dense)"},
		{func(in *Instance) { in.Tasks[0].Category = -1 }, "market: task 0 category -1 out of range"},
		{func(in *Instance) { in.Tasks[1].Replication = 0 }, "market: task 1 has non-positive replication"},
		{func(in *Instance) { in.Tasks[0].Payment = -1 }, "market: task 0 has negative payment"},
		{func(in *Instance) { in.Tasks[1].Difficulty = -0.5 }, "market: task 1 difficulty -0.5 outside [0,1]"},
		{func(in *Instance) { in.MaxPayment = 4 }, "market: MaxPayment 4 below actual max 5"},
	}
	for _, c := range cases {
		in := tinyInstance()
		c.mut(in)
		err := in.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("got error %v, want %q", err, c.want)
		}
	}

	shared := tinyInstance()
	shared.Workers[0].Specialties = []int{0, 1}
	shared.Workers[1].Specialties = []int{1, 0}
	if err := shared.Validate(); err != nil {
		t.Fatalf("specialties shared across workers: %v", err)
	}
}
