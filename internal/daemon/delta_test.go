package daemon

import (
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
)

// ckptLink is the chain bookkeeping of one on-disk checkpoint.
type ckptLink struct {
	Kind  string `json:"kind"`
	Base  string `json:"base"`
	Ckpts int    `json:"ckpts"`
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
