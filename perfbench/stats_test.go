package main

import "testing"

func TestSummarizeTailRule(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if s := summarizeMS(ms); s.N != 100 || s.P50 != 50.5 || s.Tail != 90 || s.TailPc != 90 {
		t.Errorf("100 samples: %+v, want p50 50.5 and tail 90 at p90", s)
	}
	// 3000 samples: p99 has 30 beyond it.
	ms = make([]float64, 3000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	if s := summarizeMS(ms); s.Tail != 2970 || s.TailPc != 99 {
		t.Errorf("3000 samples: %+v, want tail 2970 at p99", s)
	}
	// 70 samples: p90 has only 7 beyond it, p75 has 17.
	if s := summarizeMS(ms[:70]); s.Tail != 53 || s.TailPc != 75 || s.P50 != 35.5 {
		t.Errorf("70 samples: %+v, want p50 35.5 and tail 53 at p75", s)
	}
	// 40 samples: p75 has exactly 10 beyond it.
	if s := summarizeMS(ms[:40]); s.Tail != 30 || s.TailPc != 75 {
		t.Errorf("40 samples: %+v, want tail 30 at p75", s)
	}
	// 39 samples: no percentile has ten samples beyond it.
	if s := summarizeMS(ms[:39]); s.Tail != 0 || s.TailPc != 0 || s.P50 != 20 {
		t.Errorf("39 samples: %+v, want p50 20 and no tail", s)
	}
}
