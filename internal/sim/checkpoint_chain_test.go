package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"activedr/internal/timeutil"
)

// checkpointDirs lists the published checkpoint directories under dir.
func checkpointDirs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		if n := ent.Name(); ent.IsDir() && strings.HasPrefix(n, "t") && !strings.HasSuffix(n, ".tmp") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// readState parses one checkpoint's state.json.
func readState(t *testing.T, dir, name string) checkpointState {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, name, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	var cs checkpointState
	if err := json.Unmarshal(blob, &cs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return cs
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaChainPruneInMemory drives delta checkpoints across several
// full boundaries, kills the run mid-chain, resumes and keeps saving.
// After every save:
//   - the directories left are exactly the newest keepCheckpoints plus
//     every base their chains name: no chain member is ever pruned,
//     and nothing else survives;
//   - every kept checkpoint loads (each one, not only LATEST);
//   - pruning opened no state.json: between saves every older
//     checkpoint's state.json is hidden, which a prune that reads the
//     chain from disk would trip over and skip.
//
// The resumed run ends bit-identical to an uncheckpointed one.
func TestDeltaChainPruneInMemory(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 7, 1), SnapshotEvery: timeutil.Days(28)}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(policyFor(t, em, "activedr"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const hidden = stateFile + ".hidden"
	// hide moves every published state.json aside until reveal puts
	// the survivors back; only the next save's new checkpoint has one.
	hide := func() {
		for _, n := range checkpointDirs(t, dir) {
			if err := os.Rename(filepath.Join(dir, n, stateFile), filepath.Join(dir, n, hidden)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reveal := func() {
		for _, n := range checkpointDirs(t, dir) {
			err := os.Rename(filepath.Join(dir, n, hidden), filepath.Join(dir, n, stateFile))
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
		}
	}
	saves := 0
	check := func(int) {
		saves++
		reveal()
		names := checkpointDirs(t, dir)
		expect := make(map[string]bool)
		for _, n := range names[max(0, len(names)-keepCheckpoints):] {
			for cur := n; cur != ""; {
				expect[cur] = true
				cs := readState(t, dir, cur) // fails when a chain member was pruned
				cur = cs.Base
			}
		}
		if len(names) != len(expect) {
			t.Fatalf("save %d: kept %v, want exactly the newest %d and their chains %v", saves, names, keepCheckpoints, expect)
		}
		for _, n := range names {
			scratch := t.TempDir()
			copyTree(t, dir, scratch)
			if err := os.WriteFile(filepath.Join(scratch, latestFile), []byte(n+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := New(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.loadCheckpoint(policyFor(t, e, "activedr"), RunOptions{CheckpointDir: scratch}); err != nil {
				t.Fatalf("save %d: kept checkpoint %s does not load: %v", saves, n, err)
			}
		}
		hide()
	}
	// Checkpoint N is full when (N-1)%4 == 0, so the kill after 11
	// lands two links into the chain based on the full checkpoint 9.
	opts := RunOptions{CheckpointDir: dir, CheckpointEvery: 1, CheckpointFullEvery: 4, OnCheckpoint: check}
	stop := opts
	stop.StopAfterTriggers = 11
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em1.RunWith(policyFor(t, em1, "activedr"), stop); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	reveal()
	if name, cs := latestState(t, dir); cs.Kind != kindDelta || readState(t, dir, cs.Base).Kind != kindDelta {
		t.Fatalf("fixture: killed at %s, want a delta two links past a full checkpoint", name)
	}
	hide()
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(policyFor(t, em2, "activedr"), opts)
	if err == nil {
		t.Fatal("resume read a hidden state.json")
	}
	reveal()
	if got, err = em2.Resume(policyFor(t, em2, "activedr"), opts); err != nil {
		t.Fatal(err)
	}
	reveal()
	requireSameResult(t, want, got)
	if saves <= 2*opts.CheckpointFullEvery+1 {
		t.Fatalf("only %d saves; the run must cross two full boundaries", saves)
	}
}

// TestIndentedStateStillResumes: checkpoints written before state.json
// went compact carry indented JSON, at every link of a delta chain;
// the reader must take them unchanged.
func TestIndentedStateStillResumes(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(policyFor(t, em, "activedr"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := RunOptions{CheckpointDir: dir, CheckpointEvery: 1, CheckpointFullEvery: 3}
	stop := opts
	stop.StopAfterTriggers = 6
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em1.RunWith(policyFor(t, em1, "activedr"), stop); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	names := checkpointDirs(t, dir)
	if len(names) < 2 {
		t.Fatalf("fixture kept %v, want a delta chain", names)
	}
	for _, n := range names {
		p := filepath.Join(dir, n, stateFile)
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var ind bytes.Buffer
		if err := json.Indent(&ind, blob, "", " "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, ind.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(policyFor(t, em2, "activedr"), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}
