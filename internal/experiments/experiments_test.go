package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// fmtSscan is a tiny alias so the parse helper reads naturally.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func quickCfg() RunConfig { return RunConfig{Seed: 1, Quick: true, Reps: 2} }

func TestRegistryComplete(t *testing.T) {
	// DESIGN.md §7 lists exactly these experiments; the registry must match.
	want := []string{
		"R-Fig10", "R-Fig11", "R-Fig12", "R-Fig13",
		"R-Fig4", "R-Fig5", "R-Fig6", "R-Fig7", "R-Fig8", "R-Fig9",
		"R-Tab1", "R-Tab2", "R-Tab3", "R-Tab4",
		"X-Abl1", "X-Abl3", "X-Abl4", "X-Abl5", "X-Abl6", "X-Abl7", "X-Abl8",
		"X-Abl9", "X-Rob1", "X-Rob2",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("position %d: %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Expected == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("R-Tab1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("R-Fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Every experiment must run end to end at quick scale and produce a table.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf, quickCfg()); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if len(out) == 0 {
				t.Fatal("no output")
			}
			if !strings.Contains(out, "-") { // header rule
				t.Fatalf("no table detected:\n%s", out)
			}
		})
	}
}

func TestRunOneHeaderAndExpectation(t *testing.T) {
	e, err := ByID("R-Tab1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunOne(&buf, e, quickCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "==== R-Tab1") || !strings.Contains(out, "expected shape:") {
		t.Fatalf("missing framing:\n%s", out)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	e, err := ByID("R-Tab2")
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	cfg := quickCfg()
	if err := e.Run(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(&b, cfg); err != nil {
		t.Fatal(err)
	}
	// Strip the timing column, which legitimately varies between runs.
	normalize := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			cols := strings.Fields(line)
			if len(cols) > 1 {
				cols = cols[:len(cols)-1]
			}
			out = append(out, strings.Join(cols, " "))
		}
		return strings.Join(out, "\n")
	}
	if normalize(a.String()) != normalize(b.String()) {
		t.Fatalf("same seed, different output:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestHeadlineShapeHolds(t *testing.T) {
	// Parse R-Tab2 quick output and assert the paper's core ordering: the
	// mutual-benefit exact solver beats quality-only on mutual benefit, and
	// quality-only beats exact on quality.
	e, _ := ByID("R-Tab2")
	var buf bytes.Buffer
	if err := e.Run(&buf, RunConfig{Seed: 3, Quick: true, Reps: 2}); err != nil {
		t.Fatal(err)
	}
	var exactMutual, qoMutual, exactQuality, qoQuality float64
	for _, line := range strings.Split(buf.String(), "\n") {
		cols := strings.Fields(line)
		if len(cols) < 4 {
			continue
		}
		parse := func(s string) float64 {
			// mutual column renders as mean±ci.
			if i := strings.IndexRune(s, '±'); i >= 0 {
				s = s[:i]
			}
			var v float64
			if _, err := fmtSscan(s, &v); err != nil {
				return -1
			}
			return v
		}
		switch cols[0] {
		case "exact":
			exactMutual = parse(cols[1])
			exactQuality = parse(cols[2])
		case "quality-only":
			qoMutual = parse(cols[1])
			qoQuality = parse(cols[2])
		}
	}
	if exactMutual <= 0 || qoMutual <= 0 {
		t.Fatalf("failed to parse table:\n%s", buf.String())
	}
	if exactMutual <= qoMutual {
		t.Fatalf("exact mutual %v did not beat quality-only %v", exactMutual, qoMutual)
	}
	if qoQuality < exactQuality {
		t.Fatalf("quality-only quality %v below exact %v", qoQuality, exactQuality)
	}
}
