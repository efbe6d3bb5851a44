package daemon

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/wal"
)

// walSegment returns the path and size of the WAL's only segment.
func walSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) != 1 {
		t.Fatalf("WAL holds %d segments, want 1", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return segs[0], fi.Size()
}

// TestCheckpointAheadOfWAL: a power loss can cut the WAL back past
// events a published checkpoint already covers. Recovery must then
// continue the log after the checkpoint: a log that restarts at its
// own last record hands new events sequences the checkpoint counts as
// applied, and the next recovery skips them.
func TestCheckpointAheadOfWAL(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)

	cfg := baseConfig(t)
	cfg.SyncEvery = 1 << 30 // one fsync per batch, at its end
	cfg.Faults = faults.New(faults.Config{Seed: 3, KillSpec: faults.KillSimCheckpointPublished + ":4"})
	d1 := newDaemon(t, tinyDataset(), cfg)
	var acked int64 // WAL bytes at the last acknowledgment
	var killed error
	for i := 0; i < len(evs) && killed == nil; i += 7 {
		if killed = d1.Ingest(evs[i:min(i+7, len(evs))]); killed == nil {
			_, acked = walSegment(t, cfg.WALDir)
		}
	}
	if !errors.Is(killed, ErrKilled) {
		t.Fatalf("ingest error = %v, want ErrKilled at the 4th checkpoint", killed)
	}
	covered := d1.lastCkpt
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon syncs the WAL before an event that fires a trigger,
	// so the killed process left every event its checkpoint covers,
	// and the triggering one, on disk.
	l, info, err := wal.Open(cfg.WALDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info.LastSeq <= uint64(covered) {
		t.Fatalf("WAL ends at sequence %d, but the published checkpoint covers %d events", info.LastSeq, covered)
	}

	// Cut the log back to the last acknowledgment, as a power loss
	// does to writes no fsync covered, so it ends before the
	// checkpoint.
	seg, _ := walSegment(t, cfg.WALDir)
	if err := os.Truncate(seg, acked); err != nil {
		t.Fatal(err)
	}

	// Restart, feed three more events and crash right after their
	// fsync: they are durable, so recovery must bring them back.
	cfg2 := cfg
	cfg2.Faults = faults.New(faults.Config{Seed: 3}) // same stream, no kill
	cfg2.WALFaults = faults.New(faults.Config{Seed: 1, KillSpec: KillWALSynced + ":1"})
	d2 := newDaemon(t, tinyDataset(), cfg2)
	start := d2.stream.Applied()
	if start != covered {
		t.Fatalf("restart Applied = %d, want the checkpoint's %d", start, covered)
	}
	if err := d2.Ingest(evs[start : start+3]); !errors.Is(err, ErrKilled) {
		t.Fatalf("refeed = %v, want ErrKilled after its fsync", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	cfg3 := cfg
	cfg3.Faults = faults.New(faults.Config{Seed: 3})
	d3 := newDaemon(t, tinyDataset(), cfg3)
	defer d3.Close()
	if got := d3.stream.Applied(); got != start+3 {
		t.Fatalf("recovered Applied = %d, want %d: a durable event was lost", got, start+3)
	}
	ingestAll(t, d3, evs[d3.stream.Applied():], 7)
	requireSameReports(t, "checkpoint ahead of WAL", d3.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "checkpoint ahead of WAL", d3, ref)
}

// denseDataset is tinyDataset with the busy user touching one file
// every half hour, about 17k events: enough for batches to form real
// fsync groups between the weekly triggers.
func denseDataset() *trace.Dataset {
	ds := tinyDataset()
	const path = "/lustre/atlas/busy/hot.dat"
	ds.Snapshot.Entries = append(ds.Snapshot.Entries, trace.SnapshotEntry{
		Path: path, User: 0, Size: 1 << 20, Stripes: 1, ATime: snapAt.Add(-timeutil.Days(1)),
	})
	for t := snapAt.Add(30 * timeutil.Minute); t < repEnd; t = t.Add(30 * timeutil.Minute) {
		ds.Accesses = append(ds.Accesses, trace.Access{TS: t, User: 0, Size: 1 << 20, Path: path})
	}
	ds.SortAccesses()
	return ds
}

// TestWALWritesPerSyncGroup: with group commit the daemon issues about
// one WAL write per fsync, not one per event, and /metrics says so.
func TestWALWritesPerSyncGroup(t *testing.T) {
	ds := denseDataset()
	evs := accessEvents(ds)
	o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Obs = o
	d := newDaemon(t, ds, cfg)
	defer d.Close()
	ingestAll(t, d, evs, 256)

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	var metrics obs.MetricsSnapshot
	getJSON(t, srv, "/metrics", http.StatusOK, &metrics)
	counters := map[string]int64{}
	for _, c := range metrics.Counters {
		counters[c.Name] = c.Value
	}
	writes, syncs, records := counters["daemon_wal_writes_total"], counters["daemon_wal_syncs_total"], counters["daemon_wal_records_total"]
	// One segment and records far below the flush bound: no roll or
	// size-bound flush adds a write, so each is an fsync group's.
	if records != int64(len(evs)) || writes == 0 || writes > syncs || writes*50 > records {
		t.Fatalf("wal counters: %d writes, %d syncs, %d records; want 0 < writes <= syncs and writes <= records/50", writes, syncs, records)
	}
	if uint64(writes) != d.log.Writes() {
		t.Fatalf("metric says %d writes, the log %d", writes, d.log.Writes())
	}
}
