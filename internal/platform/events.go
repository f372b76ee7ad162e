// Package platform is the operational layer of the reproduction: an
// event-sourced labor-market state machine plus the assignment service and
// HTTP API a real deployment of the paper's system would run.
//
// The batch layers (market/core) work on immutable snapshots; a live
// platform instead sees a *stream* of events — workers joining and leaving,
// tasks being posted and cancelled — and periodically closes an assignment
// round over whatever is currently open.  This package provides:
//
//   - Event: the event vocabulary (JSON on the API, framed binary in the
//     journal);
//   - State: the mutable market state machine with deterministic replay;
//   - Log: an append-only binary event log (write, read, replay);
//   - Service: rounds of assignment over the live state via any core.Solver;
//   - Server: a net/http JSON API over the service (cmd/mbaserve).
package platform

import (
	"fmt"

	"repro/internal/market"
)

// EventKind enumerates the event vocabulary.
type EventKind string

// Event kinds.  The set is deliberately small: everything a bipartite labor
// market does is join/leave on one side and post/cancel on the other, plus
// the round marker that makes assignment points explicit in the log.
const (
	EventWorkerJoined EventKind = "worker_joined"
	EventWorkerLeft   EventKind = "worker_left"
	EventTaskPosted   EventKind = "task_posted"
	EventTaskClosed   EventKind = "task_closed"
	EventRoundClosed  EventKind = "round_closed"
	// EventEpochBumped is the replication-control record: a promotion fences
	// every earlier epoch.  Journaled like any other event so the fencing
	// decision itself replays, replicates, and survives recovery.
	EventEpochBumped EventKind = "epoch_bumped"
)

// Event is one log entry.  Exactly one payload field is set, matching Kind.
type Event struct {
	// Seq is the log sequence number, assigned by State.Apply (0 in
	// not-yet-applied events).
	Seq uint64 `json:"seq"`
	// Kind selects the payload.
	Kind EventKind `json:"kind"`

	// Worker is set for worker_joined.  Its ID field is ignored on input;
	// the state machine assigns platform-wide worker IDs.
	Worker *market.Worker `json:"worker,omitempty"`
	// WorkerID is set for worker_left.
	WorkerID *int `json:"worker_id,omitempty"`
	// Task is set for task_posted.  ID handled like Worker.ID.
	Task *market.Task `json:"task,omitempty"`
	// TaskID is set for task_closed.
	TaskID *int `json:"task_id,omitempty"`
	// Round is set for round_closed: the round number that just finished.
	Round *int `json:"round,omitempty"`
	// Epoch is set for epoch_bumped: the new (strictly higher) epoch.
	Epoch *uint64 `json:"epoch,omitempty"`
}

// Validate checks the kind/payload pairing.
func (e *Event) Validate() error {
	switch e.Kind {
	case EventWorkerJoined:
		if e.Worker == nil {
			return fmt.Errorf("platform: %s without worker payload", e.Kind)
		}
	case EventWorkerLeft:
		if e.WorkerID == nil {
			return fmt.Errorf("platform: %s without worker_id", e.Kind)
		}
	case EventTaskPosted:
		if e.Task == nil {
			return fmt.Errorf("platform: %s without task payload", e.Kind)
		}
	case EventTaskClosed:
		if e.TaskID == nil {
			return fmt.Errorf("platform: %s without task_id", e.Kind)
		}
	case EventRoundClosed:
		if e.Round == nil {
			return fmt.Errorf("platform: %s without round", e.Kind)
		}
	case EventEpochBumped:
		if e.Epoch == nil {
			return fmt.Errorf("platform: %s without epoch", e.Kind)
		}
		if *e.Epoch == 0 {
			return fmt.Errorf("platform: %s with zero epoch", e.Kind)
		}
	default:
		return fmt.Errorf("platform: unknown event kind %q", e.Kind)
	}
	return nil
}

// NewWorkerJoined builds a worker_joined event.
func NewWorkerJoined(w market.Worker) Event {
	return Event{Kind: EventWorkerJoined, Worker: &w}
}

// NewWorkerLeft builds a worker_left event.
func NewWorkerLeft(id int) Event {
	return Event{Kind: EventWorkerLeft, WorkerID: &id}
}

// NewTaskPosted builds a task_posted event.
func NewTaskPosted(t market.Task) Event {
	return Event{Kind: EventTaskPosted, Task: &t}
}

// NewTaskClosed builds a task_closed event.
func NewTaskClosed(id int) Event {
	return Event{Kind: EventTaskClosed, TaskID: &id}
}

// NewRoundClosed builds a round_closed marker.
func NewRoundClosed(round int) Event {
	return Event{Kind: EventRoundClosed, Round: &round}
}

// NewEpochBumped builds an epoch_bumped control event.
func NewEpochBumped(epoch uint64) Event {
	return Event{Kind: EventEpochBumped, Epoch: &epoch}
}
