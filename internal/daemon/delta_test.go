package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
)

// ckptLink is the chain bookkeeping of one on-disk checkpoint.
type ckptLink struct {
	Kind     string `json:"kind"`
	Base     string `json:"base"`
	Ckpts    int    `json:"ckpts"`
	Triggers int    `json:"triggers"`
}

func readLink(t *testing.T, ckptDir, name string) ckptLink {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(ckptDir, name, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var l ckptLink
	if err := json.Unmarshal(blob, &l); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestDeltaChainCrashRecovery kills the daemon right after a
// checkpoint publishes two links past its second full checkpoint (the
// daemon writes a full one every checkpointFullEvery). The next
// incarnation resumes from that delta chain, the feeder resends what
// was never acknowledged, and the result matches the batch replay.
// The checkpoint counters by kind survive the restart and show in
// /metrics.
func TestDeltaChainCrashRecovery(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	kill := checkpointFullEvery + 3 // checkpoints 1 and 17 are full

	observer := func() *obs.Observer {
		o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	cfg := baseConfig(t)
	cfg.Obs = observer()
	cfg.Faults = faults.New(faults.Config{Seed: 3, KillSpec: fmt.Sprintf("%s:%d", faults.KillSimCheckpointPublished, kill)})
	d1 := newDaemon(t, tinyDataset(), cfg)
	var killed error
	for i := range evs {
		if killed = d1.Ingest(evs[i : i+1]); killed != nil {
			break
		}
	}
	if !errors.Is(killed, ErrKilled) {
		t.Fatalf("ingest error = %v, want ErrKilled at checkpoint %d", killed, kill)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	latest, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, "LATEST"))
	if err != nil {
		t.Fatal(err)
	}
	top := readLink(t, cfg.CheckpointDir, strings.TrimSpace(string(latest)))
	mid := readLink(t, cfg.CheckpointDir, top.Base)
	if top.Kind != "delta" || top.Ckpts != kill || mid.Kind != "delta" ||
		readLink(t, cfg.CheckpointDir, mid.Base).Kind != "full" {
		t.Fatalf("crash image: latest %+v, base %+v; want checkpoint %d two deltas past a full one", top, mid, kill)
	}

	cfg2 := cfg
	cfg2.Obs = observer()
	cfg2.Faults = faults.New(faults.Config{Seed: 3}) // same stream, no kill
	d2 := newDaemon(t, tinyDataset(), cfg2)
	defer d2.Close()
	ingestAll(t, d2, evs[d2.stream.Applied():], 7)
	requireSameReports(t, "delta chain", d2.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "delta chain", d2, ref)

	srv := httptest.NewServer(d2.Handler())
	defer srv.Close()
	var m obs.MetricsSnapshot
	getJSON(t, srv, "/metrics", http.StatusOK, &m)
	counters := make(map[string]int64)
	for _, c := range m.Counters {
		counters[c.Name] = c.Value
	}
	total := counters[obs.MetricCheckpoints]
	wantFull := (total + checkpointFullEvery - 1) / checkpointFullEvery
	if total <= int64(kill) || counters[obs.MetricCheckpointsFull] != wantFull ||
		counters[obs.MetricCheckpointsDelta] != total-wantFull {
		t.Fatalf("checkpoint counters %v, want %d full and %d delta of %d", counters, wantFull, total-wantFull, total)
	}
	var bytes *obs.HistogramValue
	for i := range m.Histograms {
		if m.Histograms[i].Name == obs.MetricCheckpointBytes {
			bytes = &m.Histograms[i]
		}
	}
	if bytes == nil {
		t.Fatalf("no %s histogram in /metrics", obs.MetricCheckpointBytes)
	}
	var n int64
	for _, c := range bytes.Counts {
		n += c
	}
	if n != total || bytes.Sum <= 0 {
		t.Fatalf("%s: %d observations summing to %d bytes, want one per checkpoint (%d)", obs.MetricCheckpointBytes, n, bytes.Sum, total)
	}
}

// readLatestName returns the checkpoint LATEST names.
func readLatestName(t *testing.T, ckptDir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(ckptDir, "LATEST"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// TestDrainResaveKeepsLatest pins the drain checkpoint's publish
// order. Close lands between purge triggers, so it re-saves under the
// trigger count LATEST already names. That re-save must publish a new
// directory and leave the one LATEST named untouched (same inode,
// same state.json): removing it first would let a crash strand LATEST
// on nothing after the WAL was pruned, and the next start would
// refuse with "events lost". Two drain cycles run back to back — the
// second re-saves a re-save — and a daemon restarted from the last
// one finishes the feed with the batch replay's reports.
func TestDrainResaveKeepsLatest(t *testing.T) {
	// The fixture's weekly creates land one per trigger interval; three
	// extra mid-week creates give both drains room between triggers.
	dataset := func() *trace.Dataset {
		ds := tinyDataset()
		mid := snapAt.Add(20*timeutil.Week + timeutil.Days(3))
		for i := 0; i < 3; i++ {
			ds.Accesses = append(ds.Accesses, trace.Access{TS: mid.Add(timeutil.Hours(i + 1)), User: 0, Create: true,
				Size: 1 << 20, Path: fmt.Sprintf("/lustre/atlas/busy/drain/%d.dat", i)})
		}
		ds.SortAccesses()
		return ds
	}
	ds := dataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	cfg := baseConfig(t)

	d := newDaemon(t, dataset(), cfg)
	// Feed to mid-week: past some triggers, with the next two events
	// still before the next trigger, so both drains below re-save the
	// same trigger count.
	n := 0
	for !(evs[n].TS < d.stream.NextTrigger() && evs[n+1].TS < d.stream.NextTrigger()) || d.stream.Triggers() == 0 {
		ingestAll(t, d, evs[n:n+1], 1)
		n++
	}

	for cycle := 1; cycle <= 2; cycle++ {
		if cycle == 2 {
			d = newDaemon(t, dataset(), cfg)
			if d.stream.Applied() != n || d.recovered != 0 {
				t.Fatalf("cycle 2: restart at %d with %d WAL records replayed, want %d and 0", d.stream.Applied(), d.recovered, n)
			}
			ingestAll(t, d, evs[n:n+1], 1)
			n++
		}
		before := readLatestName(t, cfg.CheckpointDir)
		dirBefore, err := os.Stat(filepath.Join(cfg.CheckpointDir, before))
		if err != nil {
			t.Fatal(err)
		}
		stateBefore, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, before, "state.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", cycle, err)
		}
		after := readLatestName(t, cfg.CheckpointDir)
		if after == before {
			t.Fatalf("cycle %d: drain re-save republished %s in place", cycle, before)
		}
		if got, want := readLink(t, cfg.CheckpointDir, after).Triggers, readLink(t, cfg.CheckpointDir, before).Triggers; got != want {
			t.Fatalf("cycle %d: drain saved at trigger %d, want a re-save of trigger %d", cycle, got, want)
		}
		dirAfter, err := os.Stat(filepath.Join(cfg.CheckpointDir, before))
		if err != nil {
			t.Fatalf("cycle %d: previously published checkpoint %s is gone: %v", cycle, before, err)
		}
		stateAfter, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, before, "state.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(dirBefore, dirAfter) || !bytes.Equal(stateBefore, stateAfter) {
			t.Fatalf("cycle %d: previously published checkpoint %s was replaced", cycle, before)
		}
	}

	d = newDaemon(t, dataset(), cfg)
	defer d.Close()
	if d.stream.Applied() != n || d.recovered != 0 {
		t.Fatalf("restart at %d with %d WAL records replayed, want %d and 0", d.stream.Applied(), d.recovered, n)
	}
	ingestAll(t, d, evs[n:], 7)
	requireSameReports(t, "drain re-save", d.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "drain re-save", d, ref)
}
