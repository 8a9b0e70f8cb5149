package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/persist"
	"cludistream/internal/transport"
)

func coordCfg() coordinator.Config {
	return coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}}
}

func mix(means ...float64) *gaussian.Mixture {
	w := make([]float64, len(means))
	comps := make([]*gaussian.Component, len(means))
	for i, m := range means {
		w[i] = 1 / float64(len(means))
		comps[i] = gaussian.Spherical(linalg.Vector{m}, 1)
	}
	return gaussian.MustMixture(w, comps)
}

func newModelMsg(siteID, modelID int32, seq uint64, means ...float64) transport.Message {
	return transport.Message{
		Kind: transport.MsgNewModel, SiteID: siteID, ModelID: modelID,
		Count: 100, Epoch: 1, Seq: seq, Mixture: mix(means...),
	}
}

func weightMsg(siteID, modelID int32, seq uint64, delta int64) transport.Message {
	return transport.Message{
		Kind: transport.MsgWeightUpdate, SiteID: siteID, ModelID: modelID,
		Count: delta, Epoch: 1, Seq: seq,
	}
}

// applyLive mirrors the live receive path: WAL-append first, then the
// receiver's dedupe-then-apply. The append is explicit so the tests choose
// when to checkpoint.
func applyLive(t *testing.T, s *Store, coord *coordinator.Coordinator, ded *Dedupe, msg transport.Message) {
	t.Helper()
	payload := transport.Encode(msg)
	if err := s.Append(payload); err != nil {
		t.Fatal(err)
	}
	rcv := Receiver{Coord: coord, Dedupe: ded}
	if err := rcv.Step(payload, msg).Err(); err != nil {
		t.Fatal(err)
	}
}

// stateBytes canonicalizes (coordinator, dedupe, applied) to checkpoint
// bytes: the recovery contract is that these are equal before the crash
// and after, bit for bit.
func stateBytes(t *testing.T, coord *coordinator.Coordinator, ded *Dedupe, applied uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := persist.SaveCoordinatorState(&buf, &persist.CoordinatorState{
		Applied: applied, Snapshot: coord.Snapshot(), Dedupe: ded.Entries(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feed applies a small but non-trivial message stream: two sites, three
// models, weight drift, and one duplicate frame (logged before dedupe,
// exactly as the live path logs it).
func feed(t *testing.T, s *Store, coord *coordinator.Coordinator, ded *Dedupe) {
	t.Helper()
	applyLive(t, s, coord, ded, newModelMsg(1, 1, 1, -5, 5))
	applyLive(t, s, coord, ded, newModelMsg(2, 1, 1, -5.1, 5.1))
	applyLive(t, s, coord, ded, weightMsg(1, 1, 2, 300))
	applyLive(t, s, coord, ded, newModelMsg(1, 2, 3, 40, 60))
	applyLive(t, s, coord, ded, weightMsg(2, 1, 2, 50))
	// A retransmitted frame reaches the WAL before the dedupe verdict
	// drops it; replay must drop it the same way.
	applyLive(t, s, coord, ded, weightMsg(2, 1, 2, 50))
}

const feedRecords = 6

func TestStoreFreshOpen(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec.CheckpointLoaded || rec.RecordsReplayed != 0 || rec.Applied != 0 {
		t.Fatalf("fresh open reported recovery work: %+v", rec)
	}
	if rec.Coord.NumModels() != 0 {
		t.Fatalf("fresh coordinator has %d models", rec.Coord.NumModels())
	}
	// Open rotates even a fresh directory to generation 1 so the armed
	// WAL always extends a checkpoint that is already on disk.
	if s.Gen() != 1 {
		t.Fatalf("gen = %d, want 1", s.Gen())
	}
	for _, name := range []string{"checkpoint-0000000000000001.ckpt", "wal-0000000000000001.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("generation pair incomplete: %v", err)
		}
	}
}

func TestStoreCrashReplayIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, rec.Coord, rec.Dedupe)
	want := stateBytes(t, rec.Coord, rec.Dedupe, s.Applied())
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec2.CheckpointLoaded {
		t.Fatal("recovery found no checkpoint")
	}
	if rec2.RecordsReplayed != feedRecords {
		t.Fatalf("replayed %d records, want %d", rec2.RecordsReplayed, feedRecords)
	}
	if rec2.Applied != feedRecords {
		t.Fatalf("recovered applied = %d, want %d", rec2.Applied, feedRecords)
	}
	if got := stateBytes(t, rec2.Coord, rec2.Dedupe, s2.Applied()); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from pre-crash state (%d vs %d bytes)", len(got), len(want))
	}
}

func TestStoreCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, rec.Coord, rec.Dedupe)
	if err := s.Checkpoint(rec.Coord, rec.Dedupe); err != nil {
		t.Fatal(err)
	}
	if s.Gen() != 2 {
		t.Fatalf("gen = %d after rotation, want 2", s.Gen())
	}
	// The old generation is garbage once the new pair is durable.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %d files after rotation, want the gen-2 pair", len(entries))
	}
	// Post-rotation appends land in the new WAL; recovery replays only
	// the tail, not the checkpointed prefix.
	applyLive(t, s, rec.Coord, rec.Dedupe, weightMsg(1, 1, 3, 25))
	want := stateBytes(t, rec.Coord, rec.Dedupe, s.Applied())
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, rec2, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.RecordsReplayed != 1 {
		t.Fatalf("replayed %d records after a checkpoint, want 1", rec2.RecordsReplayed)
	}
	if rec2.Applied != feedRecords+1 {
		t.Fatalf("applied = %d, want %d", rec2.Applied, feedRecords+1)
	}
	if got := stateBytes(t, rec2.Coord, rec2.Dedupe, s2.Applied()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after rotation + crash")
	}
}

func TestStoreNeedCheckpoint(t *testing.T) {
	s, rec, err := Open(t.TempDir(), coordCfg(), Options{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applyLive(t, s, rec.Coord, rec.Dedupe, newModelMsg(1, 1, 1, -5, 5))
	if s.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint after 1 of 2 records")
	}
	applyLive(t, s, rec.Coord, rec.Dedupe, weightMsg(1, 1, 2, 10))
	if !s.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint false after 2 of 2 records")
	}
	if err := s.Checkpoint(rec.Coord, rec.Dedupe); err != nil {
		t.Fatal(err)
	}
	if s.NeedCheckpoint() {
		t.Fatal("NeedCheckpoint still true after checkpointing")
	}
}

func TestStoreWALGenMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A WAL from the wrong generation extends a checkpoint we don't
	// have: replaying it would corrupt state, so Open must refuse.
	w, err := persist.CreateWAL(filepath.Join(dir, "wal-0000000000000001.log"), 9, persist.FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, coordCfg(), Options{}); !errors.Is(err, persist.ErrBadFormat) {
		t.Fatalf("gen-mismatched WAL accepted: %v", err)
	}
}

func TestStoreCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint-0000000000000001.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, coordCfg(), Options{}); !errors.Is(err, persist.ErrBadFormat) {
		t.Fatalf("corrupt checkpoint accepted: %v", err)
	}
}

func TestStoreMissingWALIsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, rec.Coord, rec.Dedupe)
	if err := s.Checkpoint(rec.Coord, rec.Dedupe); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(t, rec.Coord, rec.Dedupe, s.Applied())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash between checkpoint rename and WAL create leaves no log
	// file; recovery treats that as an empty tail.
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", s.Gen()))); err != nil {
		t.Fatal(err)
	}
	s2, rec2, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.RecordsReplayed != 0 {
		t.Fatalf("replayed %d records from a missing WAL", rec2.RecordsReplayed)
	}
	if got := stateBytes(t, rec2.Coord, rec2.Dedupe, s2.Applied()); !bytes.Equal(got, want) {
		t.Fatal("state diverged recovering from a checkpoint alone")
	}
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, rec.Coord, rec.Dedupe)
	want := stateBytes(t, rec.Coord, rec.Dedupe, s.Applied())
	gen := s.Gen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a frame at the end of the log.
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", gen)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec2, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.TornBytes != 3 {
		t.Fatalf("torn bytes = %d, want 3", rec2.TornBytes)
	}
	if rec2.RecordsReplayed != feedRecords {
		t.Fatalf("replayed %d records, want %d", rec2.RecordsReplayed, feedRecords)
	}
	if got := stateBytes(t, rec2.Coord, rec2.Dedupe, s2.Applied()); !bytes.Equal(got, want) {
		t.Fatal("torn-tail recovery diverged from pre-crash state")
	}
}

// TestStoreEpochResetSurvivesReplay: a site restart (higher epoch) resets
// the dead incarnation's state; replaying the same stream must reproduce
// the reset exactly.
func TestStoreEpochResetSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyLive(t, s, rec.Coord, rec.Dedupe, newModelMsg(1, 1, 1, -5, 5))
	epoch2 := newModelMsg(1, 1, 1, -50, 50)
	epoch2.Epoch = 2
	applyLive(t, s, rec.Coord, rec.Dedupe, epoch2)
	want := stateBytes(t, rec.Coord, rec.Dedupe, s.Applied())
	if wm := rec.Dedupe.Watermark(1); wm.Epoch != 2 {
		t.Fatalf("watermark epoch = %d, want 2", wm.Epoch)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	s2, rec2, err := Open(dir, coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := stateBytes(t, rec2.Coord, rec2.Dedupe, s2.Applied()); !bytes.Equal(got, want) {
		t.Fatal("epoch reset did not survive replay")
	}
}
