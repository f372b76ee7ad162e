package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
)

// newCheckpointedService wires the full serving stack over a checkpoint
// directory: segmented journal, service, checkpoint manager.
func newCheckpointedService(t *testing.T, dir string, everyRounds, keep int, segBytes int64) (*Service, *SegmentedLog, *CheckpointManager) {
	t.Helper()
	st, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.ByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(st, solver, benefit.DefaultParams(), sl, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCheckpointManager(st, sl, CheckpointOptions{EveryRounds: everyRounds, Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetCheckpointer(cm)
	return svc, sl, cm
}

// TestCheckpointManagerNeedsSegmentedLog: snapshots live in the
// journal's directory, so a manager without a segmented log is refused.
func TestCheckpointManagerNeedsSegmentedLog(t *testing.T) {
	if _, err := NewCheckpointManager(mustState(t), nil, CheckpointOptions{}); err == nil {
		t.Fatal("checkpoint manager without a segmented log accepted")
	}
}

// churnRound submits a little churn and closes a round, returning the
// round result.
func churnRound(t *testing.T, svc *Service) *RoundResult {
	t.Helper()
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
		t.Fatal(err)
	}
	res, err := svc.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckpointRoundPolicy(t *testing.T) {
	dir := t.TempDir()
	svc, _, _ := newCheckpointedService(t, dir, 2, 2, 1<<20)
	taken := 0
	for r := 1; r <= 5; r++ {
		res := churnRound(t, svc)
		want := r%2 == 0
		if res.Checkpointed != want {
			t.Fatalf("round %d: Checkpointed = %v, want %v", r, res.Checkpointed, want)
		}
		if res.CheckpointError != "" {
			t.Fatalf("round %d: checkpoint error %q", r, res.CheckpointError)
		}
		if res.Checkpointed {
			taken++
		}
	}
	if taken != 2 {
		t.Fatalf("manager took %d checkpoints over 5 rounds at EveryRounds=2, want 2", taken)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots on disk, want 2", len(snaps))
	}
}

// TestCheckpointFallbackChainSurvivesRetirement is the contract behind
// Keep > 1: after many checkpoints have pruned snapshots and retired
// segments, corrupting the NEWEST snapshot must still leave an older
// generation with its full replay tail on disk.
func TestCheckpointFallbackChainSurvivesRetirement(t *testing.T) {
	dir := t.TempDir()
	svc, _, _ := newCheckpointedService(t, dir, 1, 2, 512)
	for r := 0; r < 6; r++ {
		churnRound(t, svc)
	}
	want := stateBytes(t, svc.State())

	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots retained, want Keep=2", len(snaps))
	}
	// Flip a byte in the middle of the newest snapshot.
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatalf("recovery with a corrupt newest snapshot: %v", err)
	}
	if len(info.CorruptSnapshots) != 1 || info.CorruptSnapshots[0] != snaps[0] {
		t.Fatalf("CorruptSnapshots = %v, want [%s]", info.CorruptSnapshots, snaps[0])
	}
	if info.SnapshotPath != snaps[1] {
		t.Fatalf("recovery used %s, want the older generation %s", info.SnapshotPath, snaps[1])
	}
	if !bytes.Equal(stateBytes(t, st), want) {
		t.Fatal("fallback recovery diverged — the older snapshot's replay tail was retired")
	}
}

func TestRecoverDirWithoutSnapshotsReplaysFromGenesis(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 12)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	st, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotPath != "" || info.EventsReplayed != 12 {
		t.Fatalf("info = %+v, want genesis replay of 12 events", info)
	}
	if !bytes.Equal(stateBytes(t, st), stateBytes(t, s)) {
		t.Fatal("genesis replay diverged")
	}
}

func TestRecoverDirDetectsSegmentGap(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 12)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments for a middle deletion, have %d", len(segs))
	}
	if err := os.Remove(segs[1].Path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverDir(dir, 3); err == nil {
		t.Fatal("a missing middle segment must be a hard error, not a silent skip")
	} else if !strings.Contains(err.Error(), "gap") {
		t.Fatalf("error %q does not name the gap", err)
	}
}

func TestRecoverDirRejectsMidHistoryCorruption(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 12)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, have %d", len(segs))
	}
	// A torn tail is only legal on the NEWEST segment; tear an older one.
	f, err := os.OpenFile(segs[0].Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := RecoverDir(dir, 3); err == nil {
		t.Fatal("mid-history corruption must be a hard error")
	}
}

func TestRecoverDirToleratesTornNewestSegment(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 6)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":7,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped == nil {
		t.Fatal("torn newest-segment tail not reported")
	}
	if !bytes.Equal(stateBytes(t, st), stateBytes(t, s)) {
		t.Fatal("torn-tail recovery diverged from committed state")
	}
}

func TestRecoverDirRejectsCategoryMismatch(t *testing.T) {
	dir := t.TempDir()
	s := populatedState(t)
	if _, _, err := WriteSnapshot(dir, s, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverDir(dir, 7); err == nil {
		t.Fatal("recovering a 3-category snapshot into a 7-category universe must fail")
	}
}

func TestCheckpointHTTPEndpoint(t *testing.T) {
	// Without a manager: 404.
	st := mustState(t)
	solver, err := core.ByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(st, solver, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/checkpoint without a manager: %d, want 404", resp.StatusCode)
	}

	// GET must not trigger compaction: the route is POST-only.
	respGet, err := http.Get(srv.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	respGet.Body.Close()
	if respGet.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/checkpoint: %d, want 405", respGet.StatusCode)
	}

	// With one: 200 and a snapshot on disk.
	dir := t.TempDir()
	svc2, _, _ := newCheckpointedService(t, dir, 0, 2, 1<<20)
	if _, err := svc2.Submit(NewWorkerJoined(validWorker())); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(svc2))
	defer srv2.Close()
	resp2, err := http.Post(srv2.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/checkpoint: %d, want 200", resp2.StatusCode)
	}
	var res CheckpointResult
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Seq != 1 || filepath.Dir(res.Path) != dir {
		t.Fatalf("checkpoint result %+v", res)
	}
	if _, err := os.Stat(res.Path); err != nil {
		t.Fatalf("published snapshot missing: %v", err)
	}
}
