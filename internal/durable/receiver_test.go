package durable

import (
	"bytes"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/persist"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// snapshotBytes encodes a coordinator's snapshot alone, for bit-level
// comparison against the reference.
func snapshotBytes(t *testing.T, coord *coordinator.Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveCoordinatorState(&buf, &persist.CoordinatorState{Snapshot: coord.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newCoord(t *testing.T, reg *telemetry.Registry) *coordinator.Coordinator {
	t.Helper()
	cfg := coordCfg()
	cfg.Telemetry = reg
	c, err := coordinator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReceiverStepTable drives one frame sequence through the receiver,
// with and without a store, and checks every step's result, counters,
// WAL length, coordinator state and trace spans. The sequence covers each
// verdict, an apply error, a traced deletion and a checkpoint falling due.
func TestReceiverStepTable(t *testing.T) {
	epoch2 := newModelMsg(1, 1, 1, -50, 50)
	epoch2.Epoch = 2
	stale := weightMsg(1, 1, 3, 5) // epoch 1, after site 1 moved to epoch 2
	unknown := weightMsg(1, 9, 2, 10)
	deletion := transport.Message{Kind: transport.MsgDeletion, SiteID: 2, ModelID: 1, Count: 40, Epoch: 1, Seq: 2}
	v1 := weightMsg(2, 1, 0, 10)
	v1.Epoch = 0

	steps := []struct {
		name     string
		msg      transport.Message
		verdict  Verdict
		applyErr bool
		// wal is the store's WAL length after the step; 0 after a
		// checkpoint rotated it (CheckpointEvery is 4).
		wal int
	}{
		{"fresh", newModelMsg(1, 1, 1, -5, 5), AdmitFresh, false, 1},
		{"fresh other site", newModelMsg(2, 1, 1, -5.1, 5.1), AdmitFresh, false, 2},
		{"duplicate", newModelMsg(1, 1, 1, -5, 5), DropDuplicate, false, 3},
		{"apply error, checkpoint due", unknown, AdmitFresh, true, 0},
		{"new epoch", epoch2, AdmitNewEpoch, false, 1},
		{"stale epoch", stale, DropStale, false, 2},
		{"deletion", deletion, AdmitFresh, false, 3},
		{"seq-0 bypass, checkpoint due", v1, AdmitFresh, false, 0},
		{"seq-0 bypass again", v1, AdmitFresh, false, 1},
	}
	notes := map[Verdict]string{AdmitFresh: "admit", AdmitNewEpoch: "new-epoch", DropStale: "stale", DropDuplicate: "dup"}

	for _, withStore := range []bool{false, true} {
		name := "no store"
		if withStore {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tracer := reg.EnableTracing(telemetry.TraceOptions{})
			rcv := Receiver{Coord: newCoord(t, reg), Dedupe: NewDedupe(), Tracer: tracer}
			dir := t.TempDir()
			if withStore {
				store, rec, err := Open(dir, coordCfg(), Options{CheckpointEvery: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				rcv.Store, rcv.Dedupe = store, rec.Dedupe
			}
			// The reference applies the admitted frames straight to the
			// coordinator, with no pipeline in between.
			ref := newCoord(t, nil)
			var want ReceiveStats
			gen := uint64(1)

			for i, st := range steps {
				msg := st.msg
				msg.TraceID, msg.SpanID = uint64(i+1), uint64(100+i)
				payload := transport.Encode(msg)
				res := rcv.Step(payload, msg)

				admitted := st.verdict == AdmitFresh || st.verdict == AdmitNewEpoch
				if res.Verdict != st.verdict || res.Admitted() != admitted {
					t.Fatalf("%s: verdict %v (admitted %v), want %v", st.name, res.Verdict, res.Admitted(), st.verdict)
				}
				if res.WALErr != nil || res.CheckpointErr != nil || (res.ApplyErr != nil) != st.applyErr {
					t.Fatalf("%s: result %+v, want apply error %v", st.name, res, st.applyErr)
				}

				want.BytesIn += len(payload)
				switch {
				case !admitted:
					want.Duplicates++
					want.DuplicateBytes += len(payload)
				default:
					want.Applied++
					if st.verdict == AdmitNewEpoch {
						want.SiteResets++
						ref.ResetSite(int(msg.SiteID))
					}
					var err error
					if msg.Kind == transport.MsgDeletion {
						err = ref.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
					} else {
						err = ref.HandleUpdate(msg.ToSiteUpdate())
					}
					if err != nil {
						want.ApplyErrors++
					}
				}
				if got := rcv.Stats(); got != want {
					t.Fatalf("%s: stats %+v, want %+v", st.name, got, want)
				}
				if !bytes.Equal(snapshotBytes(t, rcv.Coord), snapshotBytes(t, ref)) {
					t.Fatalf("%s: coordinator differs from the reference", st.name)
				}
				if withStore {
					if got := rcv.Store.WALRecords(); got != st.wal {
						t.Fatalf("%s: WAL holds %d records, want %d", st.name, got, st.wal)
					}
					if st.wal == 0 {
						gen++
					}
					if rcv.Store.Gen() != gen {
						t.Fatalf("%s: generation %d, want %d", st.name, rcv.Store.Gen(), gen)
					}
				}

				// Spans: wal-append iff a store logs the frame, a dedupe
				// verdict iff the frame is versioned, and an apply iff it
				// was admitted — deletions included, whose trace context
				// only the receiver can hand over.
				tr, ok := tracer.TraceByID(msg.TraceID)
				if !ok {
					t.Fatalf("%s: trace %d not recorded", st.name, msg.TraceID)
				}
				spans := map[string]int{}
				note := ""
				for _, sp := range tr.Spans {
					spans[sp.Name]++
					if sp.Name == "dedupe" {
						note = sp.Note
					}
				}
				wantSpans := map[string]int{}
				if withStore {
					wantSpans["wal-append"] = 1
				}
				if msg.Seq != 0 {
					wantSpans["dedupe"] = 1
				}
				if admitted {
					wantSpans["apply"] = 1
				}
				for _, span := range []string{"wal-append", "dedupe", "apply"} {
					if spans[span] != wantSpans[span] {
						t.Fatalf("%s: %d %q spans, want %d (trace %+v)", st.name, spans[span], span, wantSpans[span], tr.Spans)
					}
				}
				if msg.Seq != 0 && note != notes[st.verdict] {
					t.Fatalf("%s: dedupe note %q, want %q", st.name, note, notes[st.verdict])
				}
			}

			if withStore {
				// Checkpoint + WAL tail recover the live state bit for bit.
				live, err := rcv.StateBytes()
				if err != nil {
					t.Fatal(err)
				}
				if err := rcv.Store.Crash(); err != nil {
					t.Fatal(err)
				}
				store, rec, err := Open(dir, coordCfg(), Options{CheckpointEvery: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				recovered := Receiver{Coord: rec.Coord, Dedupe: rec.Dedupe, Store: store}
				got, err := recovered.StateBytes()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, live) {
					t.Fatal("recovered state differs from the live receiver's")
				}
			}
		})
	}
}

// TestReceiverWALRefusalChangesNothing: a frame the WAL refuses is neither
// admitted nor applied, so its redelivery is fresh, not a duplicate.
func TestReceiverWALRefusalChangesNothing(t *testing.T) {
	store, rec, err := Open(t.TempDir(), coordCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rcv := Receiver{Coord: rec.Coord, Dedupe: rec.Dedupe, Store: store}
	msg := newModelMsg(1, 1, 1, -5, 5)
	// The WAL format forbids empty records, so the append fails.
	res := rcv.Step(nil, msg)
	if res.WALErr == nil || res.Admitted() || res.Err() != res.WALErr {
		t.Fatalf("empty payload: %+v, want a WAL refusal", res)
	}
	if w := rcv.Dedupe.Watermark(1); w != (Watermark{}) {
		t.Fatalf("refused frame advanced the watermark to %+v", w)
	}
	if rcv.Coord.NumModels() != 0 || rcv.Stats().Applied != 0 || store.WALRecords() != 0 {
		t.Fatalf("refused frame changed state: %d models, %+v, %d WAL records",
			rcv.Coord.NumModels(), rcv.Stats(), store.WALRecords())
	}
	if res := rcv.Step(transport.Encode(msg), msg); res.Verdict != AdmitFresh || res.Err() != nil {
		t.Fatalf("redelivery after a refusal: %+v, want a fresh admit", res)
	}
}
