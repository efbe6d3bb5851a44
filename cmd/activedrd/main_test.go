package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"activedr/internal/daemon"
	"activedr/internal/synth"
	"activedr/internal/trace"
)

func TestParseFlagsValidation(t *testing.T) {
	ok := []string{"-wal-dir", "w", "-checkpoint-dir", "c"}
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = accepted
	}{
		{"minimal", ok, ""},
		{"flt policy", append([]string{"-policy", "flt"}, ok...), ""},
		{"chaos drill", append([]string{"-wal-fault-torn", "0.1", "-wal-fault-kill", daemon.KillWALSynced + ":3"}, ok...), ""},
		{"oneshot with feed", append([]string{"-feed", "f.tsv", "-oneshot"}, ok...), ""},

		{"missing wal dir", []string{"-checkpoint-dir", "c"}, "-wal-dir is required"},
		{"missing checkpoint dir", []string{"-wal-dir", "w"}, "-checkpoint-dir is required"},
		{"unknown policy", append([]string{"-policy", "lru"}, ok...), "-policy must be activedr or flt"},
		{"zero lifetime", append([]string{"-lifetime", "0"}, ok...), "-lifetime must be >= 1"},
		{"zero interval", append([]string{"-interval", "0"}, ok...), "-interval must be >= 1"},
		{"target above one", append([]string{"-target", "1.5"}, ok...), "-target must be in (0,1]"},
		{"NaN target", append([]string{"-target", "NaN"}, ok...), "-target must be in (0,1]"},
		{"zero queue depth", append([]string{"-queue-depth", "0"}, ok...), "-queue-depth must be >= 1"},
		{"zero sync every", append([]string{"-sync-every", "0"}, ok...), "-sync-every must be >= 1"},
		{"zero checkpoint every", append([]string{"-checkpoint-every", "0"}, ok...), "-checkpoint-every must be >= 1"},
		{"negative segment bytes", append([]string{"-segment-bytes", "-1"}, ok...), "-segment-bytes must be >= 0"},
		{"zero retries", append([]string{"-retries", "0"}, ok...), "-retries must be >= 1"},
		{"fault prob above one", append([]string{"-faults", "1.2"}, ok...), "-faults probability must be in [0,1]"},
		{"torn prob above one", append([]string{"-wal-fault-torn", "2"}, ok...), "-wal-fault-torn probability must be in [0,1]"},
		{"negative write prob", append([]string{"-wal-fault-write", "-0.5"}, ok...), "-wal-fault-write probability must be in [0,1]"},
		{"negative disk full", append([]string{"-wal-fault-disk-full", "-1"}, ok...), "-wal-fault-disk-full must be >= 0"},
		{"malformed kill spec", append([]string{"-wal-fault-kill", "nohit"}, ok...), "-wal-fault-kill:"},
		{"zero-hit kill spec", append([]string{"-wal-fault-kill", "x:0"}, ok...), "-wal-fault-kill:"},
		{"zero feed batch", append([]string{"-feed-batch", "0"}, ok...), "-feed-batch must be >= 1"},
		{"oneshot without feed", append([]string{"-oneshot"}, ok...), "-oneshot requires -feed"},
		{"unknown flag", append([]string{"-bogus"}, ok...), "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if o == nil {
					t.Fatal("no options returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// writeFixture generates a small synthetic dataset on disk plus a TSV
// feed of its whole access log, returning (dataDir, feedPath, nEvents).
func writeFixture(t *testing.T) (string, string, int) {
	t.Helper()
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 25})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	if err := trace.WriteDataset(dataDir, ds); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString("# synthetic feed\n")
	for i := range ds.Accesses {
		ev := daemon.AccessEvent(&ds.Accesses[i])
		line, err := ev.Encode(ds.Users)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	feed := filepath.Join(dir, "feed.tsv")
	if err := os.WriteFile(feed, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dataDir, feed, len(ds.Accesses)
}

// TestOneshotFeedAndRecovery runs the daemon end to end in -oneshot
// mode, then restarts it over the same dirs and checks the drained
// checkpoint carried every acknowledged event across the restart.
func TestOneshotFeedAndRecovery(t *testing.T) {
	dataDir, feed, n := writeFixture(t)
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.json")

	args := []string{
		"-data", dataDir,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-feed", feed, "-oneshot",
		"-metrics-out", metricsOut,
	}
	o, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	st := decodeStatus(t, out.String())
	if st.Applied != n || st.State != "running" {
		t.Fatalf("status = %+v, want %d applied events", st, n)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}

	// Restart over the same dirs with an empty feed: recovery must
	// restore every event without replay (the drain checkpointed).
	empty := filepath.Join(dir, "empty.tsv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o2, err := parseFlags([]string{
		"-data", dataDir,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-feed", empty, "-oneshot",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), o2, &out); err != nil {
		t.Fatalf("restart run: %v\noutput:\n%s", err, out.String())
	}
	st2 := decodeStatus(t, out.String())
	if st2.Applied != n {
		t.Fatalf("restart applied = %d, want %d", st2.Applied, n)
	}
	if st2.Recovered != 0 {
		t.Fatalf("restart replayed %d WAL records, want 0 after a graceful drain", st2.Recovered)
	}
}

// TestKillThenRecoverCLI drives the chaos flags end to end: a daemon
// killed at the post-fsync kill point on its last feed batch, then a
// clean restart that recovers every durable event from the WAL.
func TestKillThenRecoverCLI(t *testing.T) {
	dataDir, feed, n := writeFixture(t)
	dir := t.TempDir()
	base := []string{
		"-data", dataDir,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-checkpoint-every", "1000", // recovery must come from the WAL
	}
	o, err := parseFlags(append([]string{
		"-feed", feed, "-oneshot",
		"-feed-batch", "64",
		"-wal-fault-kill", daemon.KillWALSynced + ":1",
	}, base...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run(context.Background(), o, &out)
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("run = %v, want kill-point error", err)
	}

	empty := filepath.Join(dir, "empty.tsv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o2, err := parseFlags(append([]string{"-feed", empty, "-oneshot"}, base...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), o2, &out); err != nil {
		t.Fatalf("recovery run: %v\noutput:\n%s", err, out.String())
	}
	st := decodeStatus(t, out.String())
	if st.Applied != 64 || st.Recovered != 64 {
		t.Fatalf("recovered status = %+v, want 64 applied and 64 replayed (first batch fsynced before the kill)", st)
	}
	if n <= 64 {
		t.Fatalf("fixture too small for the kill matrix: %d events", n)
	}
}

// TestKillThenRefeedCLI is the feeder's resume contract: a daemon
// killed mid-feed and restarted with the same -feed resumes after the
// events it already holds (checkpoint plus recovered WAL tail) instead
// of applying them twice, and ends in the state of a clean run.
func TestKillThenRefeedCLI(t *testing.T) {
	dataDir, feed, n := writeFixture(t)
	oneshot := func(dir string, extra ...string) (map[string]any, error) {
		o, err := parseFlags(append([]string{
			"-data", dataDir,
			"-wal-dir", filepath.Join(dir, "wal"),
			"-checkpoint-dir", filepath.Join(dir, "ckpt"),
			"-feed", feed, "-oneshot", "-feed-batch", "64",
		}, extra...), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(context.Background(), o, &out); err != nil {
			return nil, err
		}
		i := strings.Index(out.String(), "{")
		if i < 0 {
			t.Fatalf("no status document in output:\n%s", out.String())
		}
		var st map[string]any
		if err := json.Unmarshal(out.Bytes()[i:], &st); err != nil {
			t.Fatal(err)
		}
		return st, nil
	}
	clean, err := oneshot(t.TempDir())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	dir := t.TempDir()
	if _, err := oneshot(dir, "-wal-fault-kill", daemon.KillWALSynced+":3"); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("run = %v, want kill-point error", err)
	}
	got, err := oneshot(dir)
	if err != nil {
		t.Fatalf("re-feed run: %v", err)
	}
	if got["recovered_events"] == 0.0 {
		t.Fatal("the restart recovered nothing from the WAL; the drill tests no resume")
	}
	// The restart's own recovery bookkeeping differs by design; the
	// replay state must not.
	for _, k := range []string{"state", "applied_events", "triggers", "next_trigger", "last_event_ts", "files", "bytes", "last_checkpoint_event"} {
		if got[k] != clean[k] {
			t.Errorf("%s = %v after kill and re-feed, want %v as in a clean run", k, got[k], clean[k])
		}
	}
	if clean["applied_events"] != float64(n) {
		t.Fatalf("clean run applied %v events, want %d", clean["applied_events"], n)
	}
}

// statusDoc is the subset of the printed status document the CLI
// tests assert on.
type statusDoc struct {
	State     string `json:"state"`
	Applied   int    `json:"applied_events"`
	Recovered int    `json:"recovered_events"`
}

// decodeStatus extracts the trailing JSON document from run's output.
func decodeStatus(t *testing.T, out string) statusDoc {
	t.Helper()
	i := strings.Index(out, "{")
	if i < 0 {
		t.Fatalf("no status document in output:\n%s", out)
	}
	var st statusDoc
	if err := json.Unmarshal([]byte(out[i:]), &st); err != nil {
		t.Fatalf("status decode: %v\noutput:\n%s", err, out)
	}
	return st
}

// syncBuf is a goroutine-safe buffer for watching the server's output
// from the test while run() writes to it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`serving on http://([\d.:]+)`)

// TestServeIngestAndSignalDrain runs the real server: ingests part of
// the feed over HTTP, then cancels the signal context and checks the
// drain checkpoints everything for the next incarnation.
func TestServeIngestAndSignalDrain(t *testing.T) {
	dataDir, feed, _ := writeFixture(t)
	dir := t.TempDir()
	o, err := parseFlags([]string{
		"-data", dataDir,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-checkpoint-every", "1000", // only the drain checkpoint persists state
		"-listen", "127.0.0.1:0",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuf
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, &out) }()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	part := strings.Join(lines[:40], "")
	resp, err := http.Post("http://"+addr+"/v1/ingest", "text/tab-separated-values",
		strings.NewReader(part))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest = %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	var st statusDoc
	resp, err = http.Get("http://" + addr + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	applied := st.Applied
	if applied == 0 {
		t.Fatal("no events applied over HTTP")
	}

	cancel() // stands in for SIGTERM: same signal.NotifyContext path
	if err := <-done; err != nil {
		t.Fatalf("run after drain: %v\noutput:\n%s", err, out.String())
	}

	// Next incarnation: the drain checkpoint carries every event.
	empty := filepath.Join(dir, "empty.tsv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o2, err := parseFlags([]string{
		"-data", dataDir,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-feed", empty, "-oneshot",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := run(context.Background(), o2, &out2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	st2 := decodeStatus(t, out2.String())
	if st2.Applied != applied || st2.Recovered != 0 {
		t.Fatalf("restart status = %+v, want %d applied and 0 replayed", st2, applied)
	}
}
