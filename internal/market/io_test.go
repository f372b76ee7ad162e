package market

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := MustGenerate(FreelanceTraceConfig(20, 15), 11)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.NumWorkers() != orig.NumWorkers() ||
		back.NumTasks() != orig.NumTasks() || back.NumCategories != orig.NumCategories {
		t.Fatal("round trip changed shape")
	}
	for i := range orig.Workers {
		if orig.Workers[i].ReservationWage != back.Workers[i].ReservationWage {
			t.Fatalf("worker %d wage changed", i)
		}
	}
	for j := range orig.Tasks {
		if orig.Tasks[j] != back.Tasks[j] {
			t.Fatalf("task %d changed", j)
		}
	}
}

func TestCSVOutputs(t *testing.T) {
	in := tinyInstance()
	var tasks, workers bytes.Buffer
	if err := in.WriteCSVTasks(&tasks); err != nil {
		t.Fatal(err)
	}
	if err := in.WriteCSVWorkers(&workers); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(tasks.String(), "\n"); got != 3 { // header + 2 rows
		t.Fatalf("task CSV lines = %d", got)
	}
	if got := strings.Count(workers.String(), "\n"); got != 3 {
		t.Fatalf("worker CSV lines = %d", got)
	}
	if !strings.HasPrefix(tasks.String(), "id,category") {
		t.Fatal("task CSV missing header")
	}
}
