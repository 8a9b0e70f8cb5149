package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/persist"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// Options tunes a Store. The zero value selects the defaults noted on
// each field.
type Options struct {
	// CheckpointEvery is how many applied records accumulate in the WAL
	// before NeedCheckpoint reports true (default 256). Smaller values
	// bound replay time; larger ones bound checkpoint I/O.
	CheckpointEvery int
	// Fsync selects WAL durability (default persist.FsyncAlways: an
	// acknowledged message is durable before the ack).
	Fsync persist.FsyncMode
	// FsyncInterval is the records-per-sync cadence for FsyncInterval
	// mode (default 32).
	FsyncInterval int
	// Telemetry, when non-nil, receives dur.* instruments and journal
	// events for checkpoints and recovery.
	Telemetry *telemetry.Registry
	// Logf receives replay-time apply errors (nil silences them).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 256
	}
	if o.Fsync == "" {
		o.Fsync = persist.FsyncAlways
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 32
	}
	return o
}

// Recovery reports what Open rebuilt from disk.
type Recovery struct {
	// Coord is the recovered coordinator (fresh when the directory was
	// empty).
	Coord *coordinator.Coordinator
	// Dedupe is the recovered exactly-once table.
	Dedupe *Dedupe
	// CheckpointLoaded reports whether a checkpoint file existed.
	CheckpointLoaded bool
	// RecordsReplayed is how many WAL records were re-applied.
	RecordsReplayed int
	// TornBytes is the length of the torn tail the WAL replay tolerated.
	TornBytes int
	// Applied is the recovered total of applied messages.
	Applied uint64
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// storeTele holds the durability instruments (all nil ⇒ no-op).
type storeTele struct {
	reg         *telemetry.Registry
	checkpoints *telemetry.Counter
	ckptBytes   *telemetry.Counter
	walRecords  *telemetry.Counter
	walBytes    *telemetry.Counter
	replayed    *telemetry.Counter
	tornBytes   *telemetry.Counter
	recoverSecs *telemetry.Histogram
}

func newStoreTele(reg *telemetry.Registry) storeTele {
	if reg == nil {
		return storeTele{}
	}
	return storeTele{
		reg:         reg,
		checkpoints: reg.Counter("dur.checkpoints"),
		ckptBytes:   reg.Counter("dur.checkpoint_bytes"),
		walRecords:  reg.Counter("dur.wal_records"),
		walBytes:    reg.Counter("dur.wal_bytes"),
		replayed:    reg.Counter("dur.replayed"),
		tornBytes:   reg.Counter("dur.torn_bytes"),
		recoverSecs: reg.Histogram("dur.recover_seconds",
			0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5),
	}
}

// Store owns one state directory holding a checkpoint + WAL generation
// pair (checkpoint-N.ckpt / wal-N.log). Rotation is atomic: the new
// checkpoint is written to a temp file, synced, renamed, and only then is
// the old generation deleted — a crash at any point leaves a loadable
// pair on disk. Not safe for concurrent use; callers append and
// checkpoint under the lock that guards the coordinator.
type Store struct {
	dir       string
	opts      Options
	gen       uint64
	wal       *persist.WAL
	applied   uint64
	sinceCkpt int
	tele      storeTele
}

// Open recovers the latest durable state from dir (creating it if
// needed; an empty directory yields a fresh coordinator built from cfg),
// rotates to a new generation, and returns the armed store. cfg must
// match the deployment the state was persisted from.
func Open(dir string, cfg coordinator.Config, opts Options) (*Store, *Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	s := &Store{dir: dir, opts: opts, tele: newStoreTele(opts.Telemetry)}
	rec := &Recovery{}

	gen, ok, err := latestGeneration(dir)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		st, err := loadCheckpoint(s.checkpointPath(gen))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: checkpoint generation %d: %w", gen, err)
		}
		rec.Coord, err = coordinator.FromSnapshot(cfg, st.Snapshot)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w: %v", persist.ErrBadFormat, err)
		}
		rec.Dedupe = DedupeFromEntries(st.Dedupe)
		rec.Applied = st.Applied
		rec.CheckpointLoaded = true
		if err := s.replayWAL(gen, rec); err != nil {
			return nil, nil, err
		}
	} else {
		rec.Coord, err = coordinator.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		rec.Dedupe = NewDedupe()
	}
	s.gen = gen
	s.applied = rec.Applied

	// Rotate: persist the recovered state as the new generation so the
	// fresh WAL extends a checkpoint that is already on disk.
	if err := s.Checkpoint(rec.Coord, rec.Dedupe); err != nil {
		return nil, nil, err
	}
	rec.Duration = time.Since(start)
	s.tele.replayed.Add(int64(rec.RecordsReplayed))
	s.tele.tornBytes.Add(int64(rec.TornBytes))
	s.tele.recoverSecs.Observe(rec.Duration.Seconds())
	if s.tele.reg != nil {
		s.tele.reg.Record(telemetry.Event{
			Kind: "recover", N: rec.RecordsReplayed,
			Value: rec.Duration.Seconds(), Note: dir,
		})
	}
	return s, rec, nil
}

// replayWAL re-applies the WAL tail of generation gen to the recovered
// coordinator through the same Receiver the live paths use. A missing
// file (crash between checkpoint rename and WAL create) is an empty log;
// a torn tail is tolerated and counted.
func (s *Store) replayWAL(gen uint64, rec *Recovery) error {
	path := s.walPath(gen)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil
	}
	walGen, records, torn, err := persist.ReadWALFile(path)
	if err != nil {
		return fmt.Errorf("durable: WAL generation %d: %w", gen, err)
	}
	if walGen != gen {
		return fmt.Errorf("%w: WAL generation %d does not extend checkpoint %d", persist.ErrBadFormat, walGen, gen)
	}
	rec.TornBytes = torn
	rcv := Receiver{Coord: rec.Coord, Dedupe: rec.Dedupe}
	for _, payload := range records {
		msg, err := transport.Decode(payload)
		if err != nil {
			// Records are CRC-framed, so an undecodable one was never
			// produced by the live apply path: refuse the state.
			return fmt.Errorf("durable: %w: WAL record undecodable: %v", persist.ErrBadFormat, err)
		}
		if res := rcv.Step(payload, msg); res.ApplyErr != nil && s.opts.Logf != nil {
			// Mirrors the live server: the watermark advanced, the apply
			// failed, delivery moved on. Replay must do the same.
			s.opts.Logf("durable: replay apply %v from site %d: %v", msg.Kind, msg.SiteID, res.ApplyErr)
		}
		rec.Applied++
		rec.RecordsReplayed++
	}
	return nil
}

// Append logs one applied payload to the WAL.
func (s *Store) Append(payload []byte) error {
	if err := s.wal.Append(payload); err != nil {
		return err
	}
	s.applied++
	s.sinceCkpt++
	s.tele.walRecords.Inc()
	s.tele.walBytes.Add(int64(len(payload) + 8))
	return nil
}

// NeedCheckpoint reports whether the WAL has accumulated CheckpointEvery
// records since the last checkpoint.
func (s *Store) NeedCheckpoint() bool { return s.sinceCkpt >= s.opts.CheckpointEvery }

// Checkpoint writes the given live state as a new generation and rotates
// the WAL. On error the current generation stays armed and valid.
func (s *Store) Checkpoint(coord *coordinator.Coordinator, ded *Dedupe) error {
	next := s.gen + 1
	n, err := writeCheckpoint(s.checkpointPath(next), s.state(coord, ded))
	if err != nil {
		return err
	}
	wal, err := persist.CreateWAL(s.walPath(next), next, s.opts.Fsync, s.opts.FsyncInterval)
	if err != nil {
		os.Remove(s.checkpointPath(next))
		return err
	}
	prev := s.gen
	if s.wal != nil {
		s.wal.Close()
	}
	s.wal = wal
	s.gen = next
	s.sinceCkpt = 0
	// The new pair is durable; the old generation is now garbage.
	os.Remove(s.checkpointPath(prev))
	os.Remove(s.walPath(prev))
	syncDir(s.dir)
	s.tele.checkpoints.Inc()
	s.tele.ckptBytes.Add(n)
	if s.tele.reg != nil {
		s.tele.reg.Record(telemetry.Event{Kind: "checkpoint", N: int(s.applied), Value: float64(n)})
	}
	return nil
}

// state is the durable state a checkpoint persists.
func (s *Store) state(coord *coordinator.Coordinator, ded *Dedupe) *persist.CoordinatorState {
	return &persist.CoordinatorState{Applied: s.applied, Snapshot: coord.Snapshot(), Dedupe: ded.Entries()}
}

// Applied returns the total messages applied across the store's lifetime
// (recovered count plus appends).
func (s *Store) Applied() uint64 { return s.applied }

// Gen returns the current checkpoint generation.
func (s *Store) Gen() uint64 { return s.gen }

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// WALRecords returns the records in the current WAL (replay length if the
// process died now).
func (s *Store) WALRecords() int { return s.wal.Records() }

// Close flushes and closes the WAL. It does not checkpoint; graceful
// shutdown paths call Checkpoint first so restart replays nothing.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Crash abandons the store without flushing buffered WAL records — the
// test hook that models a process crash (see persist.WAL.Crash). With
// FsyncAlways nothing is buffered and recovery is lossless.
func (s *Store) Crash() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Crash()
	s.wal = nil
	return err
}

func (s *Store) checkpointPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("checkpoint-%016d.ckpt", gen))
}

func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d.log", gen))
}

// writeCheckpoint saves st to path atomically (temp + sync + rename),
// returning the byte size.
func writeCheckpoint(path string, st *persist.CoordinatorState) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	if err := persist.SaveCoordinatorState(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	info, _ := f.Stat()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	var n int64
	if info != nil {
		n = info.Size()
	}
	return n, nil
}

// loadCheckpoint reads one checkpoint file.
func loadCheckpoint(path string) (*persist.CoordinatorState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return persist.LoadCoordinatorState(f)
}

// latestGeneration scans dir for the highest complete checkpoint
// generation, ignoring stray temp files from interrupted rotations.
func latestGeneration(dir string) (uint64, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false, err
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	if len(gens) == 0 {
		return 0, false, nil
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens[len(gens)-1], true, nil
}

// syncDir fsyncs a directory so renames and removals are durable
// (best-effort: not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}
