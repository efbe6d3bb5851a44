package sim

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/fsx"
	"activedr/internal/timeutil"
)

// TestLatestPointerDurability pins the checkpoint publish protocol to
// real durability barriers: every data file and directory of a
// checkpoint must be fsynced before the rename that publishes it, the
// rename itself (parent directory) after it, and the LATEST pointer
// (file and parent directory), so a power cut after publish can never
// resurrect a stale pointer or expose a zero-length file the pruned
// WAL can no longer rebuild. Full and delta checkpoints, the CaptureAt
// sidecar and the snapshot series all count. A checkpoint's tree state
// is one namespace file: fs.bin when full, delta.bin (upserts and
// removals together) when a delta.
func TestLatestPointerDurability(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 2, 1), SnapshotEvery: timeutil.Days(28)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	last := fsx.SyncCount()
	published := 0
	barriers := func(int) {
		published++
		name, err := readLatest(dir)
		if err != nil {
			t.Fatal(err)
		}
		// One fsync per file and directory in the checkpoint (the
		// directory itself included), then the rename's parent and
		// the LATEST file and its parent.
		want := int64(3)
		if err := filepath.WalkDir(filepath.Join(dir, name), func(_ string, _ fs.DirEntry, err error) error {
			want++
			return err
		}); err != nil {
			t.Fatal(err)
		}
		now := fsx.SyncCount()
		if got := now - last; got != want {
			t.Errorf("checkpoint %s: %d fsync barriers, want %d", name, got, want)
		}
		last = now
		_, cs := latestState(t, dir)
		has := func(f string) bool {
			_, err := os.Stat(filepath.Join(dir, name, f))
			return err == nil
		}
		if full := cs.Kind == kindFull; has(fsFile) != full || has(deltaFile) == full {
			t.Errorf("%s checkpoint %s: %s present %t, %s present %t", cs.Kind, name, fsFile, has(fsFile), deltaFile, has(deltaFile))
		}
	}
	if _, err := em.RunWith(em.NewFLT(), RunOptions{
		CheckpointDir: dir, CheckpointFullEvery: 3, StopAfterTriggers: 12, OnCheckpoint: barriers,
	}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if published != 12 {
		t.Fatalf("%d checkpoints published, want 12", published)
	}

	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Fatalf("LATEST points at missing checkpoint: %v", err)
	}
	// The atomic replacement leaves no tmp debris behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".tmp") {
			t.Fatalf("temp file %s leaked into checkpoint dir", ent.Name())
		}
	}
}

// TestKillPointInterruptAndResume rehearses a process death at the
// instant a checkpoint becomes durable: the run dies with
// ErrInterrupted exactly at the configured kill point, and a resumed
// run — fresh emulator, fresh injector without the kill spec —
// reproduces the uninterrupted result bit for bit.
func TestKillPointInterruptAndResume(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	probs := faults.Config{Seed: 77, UnlinkFailProb: 0.25}

	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(em.NewFLT(), RunOptions{Faults: faults.New(probs)})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killCfg := probs
	killCfg.KillSpec = faults.KillSimCheckpointPublished + ":3"
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := em1.RunWith(em1.NewFLT(), RunOptions{CheckpointDir: dir, Faults: faults.New(killCfg)})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("kill point did not interrupt: %v", err)
	}
	if len(partial.Reports) != 3 {
		t.Fatalf("killed after %d triggers, want 3", len(partial.Reports))
	}
	if !HasCheckpoint(dir) {
		t.Fatal("no checkpoint survived the kill")
	}

	// The resume injector carries the same probability stream but no
	// kill spec: the checkpoint predates the kill counter's fatal hit,
	// so resuming with the spec would just die again. ShouldKill draws
	// no randomness, so dropping it cannot desynchronize the stream.
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(em2.NewFLT(), RunOptions{CheckpointDir: dir, Faults: faults.New(probs)})
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	requireSameResult(t, want, got)
}
