package market

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serialises the instance to w as indented JSON.  Instances are
// snapshots, so a flat document is the natural interchange format for the
// cmd/mbagen tool and for replaying a market in another system.
func (in *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(in); err != nil {
		return fmt.Errorf("market: encoding instance: %w", err)
	}
	return nil
}

// WriteCSVTasks emits the task table as CSV (header + one row per task),
// convenient for spreadsheet inspection of generated workloads.
func (in *Instance) WriteCSVTasks(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,category,replication,payment,difficulty"); err != nil {
		return err
	}
	for _, t := range in.Tasks {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.4f,%.4f\n",
			t.ID, t.Category, t.Replication, t.Payment, t.Difficulty); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVWorkers emits the worker table as CSV.  Per-category profiles are
// collapsed to the specialty averages to keep rows readable.
func (in *Instance) WriteCSVWorkers(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,capacity,num_specialties,mean_spec_accuracy,mean_spec_interest,reservation_wage"); err != nil {
		return err
	}
	for i := range in.Workers {
		wk := &in.Workers[i]
		var acc, intr float64
		for _, c := range wk.Specialties {
			acc += wk.Accuracy[c]
			intr += wk.Interest[c]
		}
		n := float64(len(wk.Specialties))
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.4f,%.4f,%.4f\n",
			wk.ID, wk.Capacity, len(wk.Specialties), acc/n, intr/n, wk.ReservationWage); err != nil {
			return err
		}
	}
	return nil
}
