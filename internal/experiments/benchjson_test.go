package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/core"
)

// TestRunBenchJSONTinyScale runs the regression harness at a toy scale with
// a single solver and checks the report is complete and valid JSON.  The
// full-scale run is cmd/mbabench -benchjson.
func TestRunBenchJSONTinyScale(t *testing.T) {
	rep, err := RunBenchJSON(io.Discard, BenchConfig{
		Seed:    1,
		Scales:  []BenchScale{{Name: "tiny", Workers: 30, Tasks: 20}},
		Solvers: []core.Solver{core.Greedy{Kind: core.MutualWeight}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Suites) != 1 || rep.Suites[0] != "construction" {
		t.Fatalf("default suites %v, want [construction]", rep.Suites)
	}
	want := []string{"new-problem", "new-problem-serial", "feasible", "greedy"}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(want))
	}
	for i, name := range want {
		r := rep.Results[i]
		if r.Name != name {
			t.Fatalf("result %d is %q, want %q", i, r.Name, name)
		}
		if r.Suite != "construction" {
			t.Fatalf("%s: suite %q, want construction", name, r.Suite)
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Fatalf("%s: ns/op %v iters %d not measured", name, r.NsPerOp, r.Iterations)
		}
		if r.Scale != "tiny" || r.Edges <= 0 {
			t.Fatalf("%s: scale metadata missing: %+v", name, r)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatal("round-trip lost results")
	}
}

// TestRunBenchJSONSolveAndRoundSuites runs the two serving-path suites at a
// toy scale and checks every expected entry lands, tagged with its suite.
func TestRunBenchJSONSolveAndRoundSuites(t *testing.T) {
	rep, err := RunBenchJSON(io.Discard, BenchConfig{
		Seed:    1,
		Scales:  []BenchScale{{Name: "tiny", Workers: 30, Tasks: 20}},
		Suites:  []string{"solve", "round"},
		Solvers: []core.Solver{core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ suite, name string }
	want := []entry{
		{"solve", "rebuild-problem"},
		{"solve", "refresh-problem"},
		{"solve", "greedy"},
		{"round", "close-round"},
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d: %+v", len(rep.Results), len(want), rep.Results)
	}
	for i, w := range want {
		r := rep.Results[i]
		if r.Suite != w.suite || r.Name != w.name {
			t.Fatalf("result %d is %s/%s, want %s/%s", i, r.Suite, r.Name, w.suite, w.name)
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.Edges <= 0 {
			t.Fatalf("%s/%s not measured: %+v", r.Suite, r.Name, r)
		}
	}
}

// TestRunBenchJSONMatchingSuite runs the exact-path suite at a toy scale
// and checks both engines land: the cold serial reference first, then the
// workspace-reused solver.
func TestRunBenchJSONMatchingSuite(t *testing.T) {
	rep, err := RunBenchJSON(io.Discard, BenchConfig{
		Seed:   1,
		Scales: []BenchScale{{Name: "tiny", Workers: 24, Tasks: 18}},
		Suites: []string{"matching"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"exact-serial", "exact"}
	if len(rep.Results) != len(want) {
		t.Fatalf("%d results, want %d: %+v", len(rep.Results), len(want), rep.Results)
	}
	for i, name := range want {
		r := rep.Results[i]
		if r.Suite != "matching" || r.Name != name {
			t.Fatalf("result %d is %s/%s, want matching/%s", i, r.Suite, r.Name, name)
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 || r.Edges <= 0 {
			t.Fatalf("%s not measured: %+v", name, r)
		}
	}
}

// TestRunBenchJSONUnknownSuite checks suite-name typos fail loudly instead
// of silently benchmarking nothing.
func TestRunBenchJSONUnknownSuite(t *testing.T) {
	_, err := RunBenchJSON(io.Discard, BenchConfig{Seed: 1, Suites: []string{"sovle"}})
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
}
