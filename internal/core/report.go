package core

// CategoryReport breaks an assignment down by task category — the view a
// platform operator reads to see *where* the market clears and where it
// starves.
type CategoryReport struct {
	Category int
	// Tasks and Slots describe demand in the category.
	Tasks int
	Slots int
	// Filled is how many of those slots the assignment covered.
	Filled int
	// EligibleWorkers counts workers with this category as a specialty.
	EligibleWorkers int
	// MeanMutual / MeanQuality average the per-pair values of the filled
	// slots (0 when none).
	MeanMutual  float64
	MeanQuality float64
}

// ByCategory computes one CategoryReport per category for sel.
func (p *Problem) ByCategory(sel []int) []CategoryReport {
	reps := make([]CategoryReport, p.In.NumCategories)
	for c := range reps {
		reps[c].Category = c
	}
	for j := range p.In.Tasks {
		t := &p.In.Tasks[j]
		reps[t.Category].Tasks++
		reps[t.Category].Slots += t.Replication
	}
	for i := range p.In.Workers {
		for _, c := range p.In.Workers[i].Specialties {
			reps[c].EligibleWorkers++
		}
	}
	for _, ei := range sel {
		e := &p.Edges[ei]
		c := p.In.Tasks[e.T].Category
		reps[c].Filled++
		reps[c].MeanMutual += e.M
		reps[c].MeanQuality += e.Q
	}
	for c := range reps {
		if reps[c].Filled > 0 {
			reps[c].MeanMutual /= float64(reps[c].Filled)
			reps[c].MeanQuality /= float64(reps[c].Filled)
		}
	}
	return reps
}

// StarvedCategories returns the categories whose slot coverage falls below
// threshold (ignoring categories with no demand), sorted by coverage
// ascending — the operator's worklist for recruiting or re-pricing.
func (p *Problem) StarvedCategories(sel []int, threshold float64) []CategoryReport {
	var out []CategoryReport
	for _, r := range p.ByCategory(sel) {
		if r.Slots == 0 {
			continue
		}
		if float64(r.Filled)/float64(r.Slots) < threshold {
			out = append(out, r)
		}
	}
	// Insertion sort by coverage: the list is short.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			ci := float64(out[j].Filled) / float64(out[j].Slots)
			cp := float64(out[j-1].Filled) / float64(out[j-1].Slots)
			if ci < cp {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}
