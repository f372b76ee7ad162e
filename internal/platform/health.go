package platform

// Health reporting for GET /v1/healthz: enough signal for an operator (or
// a standby's takeover script) to decide whether this process is serving
// safely — is the journal still appendable, how far has the event stream
// progressed, and, on a follower, how far behind the primary it runs.

// HealthStatus is the /v1/healthz payload.
type HealthStatus struct {
	// Status is "ok" or "degraded" (a poisoned journal: reads and rounds
	// still serve, ingestion is refused).
	Status string `json:"status"`
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// LastSeq is the last committed sequence number.
	LastSeq         uint64 `json:"last_seq"`
	JournalPoisoned bool   `json:"journal_poisoned"`
	Workers         int    `json:"workers"`
	Tasks           int    `json:"tasks"`
	Rounds          int    `json:"rounds"`
	// PrimarySeq and ReplicationLag are follower-only: the primary's last
	// committed sequence as of the latest poll, and how many events behind
	// it this follower's state is.
	PrimarySeq     uint64 `json:"primary_seq,omitempty"`
	ReplicationLag uint64 `json:"replication_lag,omitempty"`
	// Epoch is the replication epoch of the serving state: 0 on a market
	// that has never failed over, bumped by one at every promotion.
	Epoch uint64 `json:"epoch"`
	// Fenced reports that this process observed a higher epoch than its
	// own (FencedBy) — it is a demoted primary refusing writes.
	Fenced   bool   `json:"fenced,omitempty"`
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// PromotedAtSeq is the journal sequence of the epoch-bump event this
	// primary wrote when it took over (0 when it started as a primary).
	PromotedAtSeq uint64 `json:"promoted_at_seq,omitempty"`
	// ContactAgeMS is follower-only: milliseconds since the last successful
	// primary contact.
	ContactAgeMS int64 `json:"contact_age_ms,omitempty"`
	// ConsecutiveRetries is follower-only: how many poll/resync attempts
	// in a row have failed.  0 while replication is healthy; a growing
	// value means the primary is unreachable or flapping.
	ConsecutiveRetries int64 `json:"consecutive_retries,omitempty"`
	// Resyncs is follower-only: how many times it has rebuilt its state
	// from the primary's snapshot because the journal it needed had been
	// retired.  A growing value means the follower keeps falling behind
	// segment retention.
	Resyncs uint64 `json:"resyncs,omitempty"`
	// Admission carries the admission controller's shed/brownout counters
	// when admission is enabled on the serving front end.
	Admission *AdmissionHealth `json:"admission,omitempty"`
}

// journalPoisoned asks a journal whether it can still append; journals
// that don't report (or nil) count as healthy.
func journalPoisoned(j Journal) bool {
	p, ok := j.(interface{ Poisoned() bool })
	return ok && p.Poisoned()
}

// Health implements HealthReporter.
func (s *Service) Health() HealthStatus {
	workers, tasks := s.state.Counts()
	h := HealthStatus{
		Role:            "primary",
		LastSeq:         s.state.Seq(),
		JournalPoisoned: journalPoisoned(s.journal),
		Workers:         workers,
		Tasks:           tasks,
		Rounds:          s.state.Rounds(),
		Epoch:           s.state.Epoch(),
		PromotedAtSeq:   s.PromotedAtSeq(),
	}
	h.Fenced, h.FencedBy = s.FenceStatus()
	if !h.Fenced {
		h.FencedBy = 0
	}
	h.Status = "ok"
	if h.JournalPoisoned || h.Fenced {
		h.Status = "degraded"
	}
	return h
}
