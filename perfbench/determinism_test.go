package main

import (
	"path/filepath"
	"testing"
)

// TestTracingDoesNotChangeTheProgram runs each workload at a small scale,
// untraced and traced, with the same seed: both must close the same rounds
// (pairs and TotalMutual) and journal the same events.
func TestTracingDoesNotChangeTheProgram(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			small := *w
			small.workers, small.tasks, small.warmup, small.episodes = 64, 64, 2, 2
			const cycles = 4
			dir := t.TempDir()
			plain, err := measure(&small, 7, cycles, filepath.Join(dir, "plain"), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := measure(&small, 7, cycles, filepath.Join(dir, "traced"), tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest || plain.journal != traced.journal {
				t.Errorf("untraced rounds %s journal %s, traced rounds %s journal %s",
					plain.digest, plain.journal, traced.digest, traced.journal)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Errorf("failed requests: %d untraced, %d traced", plain.failed, traced.failed)
			}
			if want := small.episodes * (1 + small.warmup + cycles); small.round && len(plain.rounds) != want {
				t.Errorf("%d rounds, want %d", len(plain.rounds), want)
			}
			if len(tr.finish()) == 0 {
				t.Error("the traced run recorded no spans")
			}
		})
	}
}
