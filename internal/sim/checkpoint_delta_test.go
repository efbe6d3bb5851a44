package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// latestState parses the newest checkpoint's state.json.
func latestState(t *testing.T, dir string) (string, checkpointState) {
	t.Helper()
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, name, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	var cs checkpointState
	if err := json.Unmarshal(blob, &cs); err != nil {
		t.Fatal(err)
	}
	return name, cs
}

// editLatestState rewrites the newest checkpoint's state.json through
// a generic map, preserving fields the edit does not touch.
func editLatestState(t *testing.T, dir string, edit func(m map[string]any)) {
	t.Helper()
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name, stateFile)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	blob, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaCheckpointResume is the delta-format determinism bar: with
// only every 3rd checkpoint full, runs that checkpoint along the way
// stay bit-identical to an uncheckpointed run, interruptions at both
// full and delta checkpoints resume exactly, and the checkpoint files
// a resumed run keeps writing are byte-identical to the uninterrupted
// checkpointing run's.
func TestDeltaCheckpointResume(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 7, 1), SnapshotEvery: timeutil.Days(28)}
	opts := func(dir string) RunOptions {
		return RunOptions{CheckpointDir: dir, CheckpointEvery: 1, CheckpointFullEvery: 3}
	}

	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(policyFor(t, em, "activedr"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	emRef, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := emRef.RunWith(policyFor(t, emRef, "activedr"), opts(refDir))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, ref)

	// Checkpoint N is full when (N-1)%3 == 0: stops 2, 3 and 9 land on
	// delta checkpoints (9 mid-series, with snapshot sidecars spread
	// across the chain), stops 4 and 7 on full ones.
	for _, stopAt := range []int{2, 3, 4, 7, 9} {
		t.Run(fmt.Sprintf("stop=%d", stopAt), func(t *testing.T) {
			dir := t.TempDir()
			em1, err := New(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stopOpts := opts(dir)
			stopOpts.StopAfterTriggers = stopAt
			if _, err := em1.RunWith(policyFor(t, em1, "activedr"), stopOpts); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			_, cs := latestState(t, dir)
			wantKind := kindDelta
			if (stopAt-1)%3 == 0 {
				wantKind = kindFull
			}
			if cs.Kind != wantKind {
				t.Fatalf("stop=%d checkpoint kind = %q, want %q", stopAt, cs.Kind, wantKind)
			}
			em2, err := New(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := em2.Resume(policyFor(t, em2, "activedr"), opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, want, got)
			if !reflect.DeepEqual(normalizeCheckpoint(t, dir), normalizeCheckpoint(t, refDir)) {
				t.Error("final checkpoint state diverges from the uninterrupted run's")
			}
			refName, err := readLatest(refDir)
			if err != nil {
				t.Fatal(err)
			}
			gotName, err := readLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if refName != gotName {
				t.Fatalf("final checkpoint name %q, want %q", gotName, refName)
			}
			for _, f := range []string{fsFile, deltaFile, capturedFile} {
				rb, rerr := os.ReadFile(filepath.Join(refDir, refName, f))
				gb, gerr := os.ReadFile(filepath.Join(dir, gotName, f))
				if os.IsNotExist(rerr) && os.IsNotExist(gerr) {
					continue
				}
				if rerr != nil || gerr != nil {
					t.Fatalf("%s: ref err %v, got err %v", f, rerr, gerr)
				}
				if !bytes.Equal(rb, gb) {
					t.Errorf("final checkpoint sidecar %s not byte-identical to the uninterrupted run's", f)
				}
			}
		})
	}
}

// rewriteFullAsTSV converts the newest checkpoint, a full one, from
// the version-4 namespace files to the gzip TSV ones of versions 2
// and 3; the caller rewrites its state.json.
func rewriteFullAsTSV(t *testing.T, dir string, users []trace.User) {
	t.Helper()
	name, cs := latestState(t, dir)
	if cs.Kind != kindFull {
		t.Fatalf("checkpoint %s is %q, want full", name, cs.Kind)
	}
	fp := fingerprintUsers(users)
	convert := func(from, to string) {
		from, to = filepath.Join(dir, name, from), filepath.Join(dir, name, to)
		snap, err := readNSSnapshot(from, fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSnapshotFile(to, users, snap); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(from); err != nil {
			t.Fatal(err)
		}
	}
	convert(fsFile, legacyFSFile)
	if cs.HasCaptured {
		convert(capturedFile, legacyCapturedFile)
	}
	for i := 0; i < cs.NumSnapshots; i++ {
		convert(filepath.Join(snapsSubdir, seriesName(i)), filepath.Join(snapsSubdir, legacySeriesName(i)))
	}
}

// TestCheckpointV2Migration pins the migration contract of satellite
// 3: a version-2 checkpoint (the pre-delta format — exactly a full
// checkpoint without kind/base/ckpts) loaded by the delta-aware
// reader resumes bit-identically, even when the resumed run writes
// delta checkpoints from there on.
func TestCheckpointV2Migration(t *testing.T) {
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
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em1.RunWith(policyFor(t, em1, "activedr"), RunOptions{
		CheckpointDir: dir, CheckpointEvery: 1, StopAfterTriggers: 5,
	}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	// Rewrite the checkpoint as a v2 run would have written it.
	rewriteFullAsTSV(t, dir, ds.Users)
	v2digest := em1.cfg.digestV2()
	editLatestState(t, dir, func(m map[string]any) {
		m["version"] = 2
		m["config"] = v2digest
		delete(m, "kind")
		delete(m, "base")
		delete(m, "ckpts")
	})
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(policyFor(t, em2, "activedr"), RunOptions{
		CheckpointDir: dir, CheckpointEvery: 1, CheckpointFullEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
	// A v2 checkpoint carries no cadence counter, so the resumed run's
	// first checkpoint must be full (never a delta against an unknown
	// window), and the rotation picks up from there.
	if _, cs := latestState(t, dir); cs.Version != checkpointVersion {
		t.Fatalf("resumed run kept writing version %d", cs.Version)
	}
}

// TestCheckpointVersionRejection: unknown versions and internally
// inconsistent v2 states fail fast with a clear error instead of
// silently mis-resuming.
func TestCheckpointVersionRejection(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	newEm := func() *Emulator {
		em, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return em
	}
	run := func() string {
		dir := t.TempDir()
		em := newEm()
		if _, err := em.RunWith(policyFor(t, em, "activedr"), RunOptions{
			CheckpointDir: dir, CheckpointEvery: 1, StopAfterTriggers: 2,
		}); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
		return dir
	}
	resumeErr := func(dir string) error {
		em := newEm()
		_, err := em.Resume(policyFor(t, em, "activedr"), RunOptions{CheckpointDir: dir})
		return err
	}

	dir := run()
	editLatestState(t, dir, func(m map[string]any) { m["version"] = 9 })
	if err := resumeErr(dir); err == nil || !containsAll(err.Error(), "version 9", "refusing to resume") {
		t.Fatalf("unknown version: %v", err)
	}

	dir = run()
	v2digest := newEm().cfg.digestV2()
	editLatestState(t, dir, func(m map[string]any) {
		m["version"] = 2
		m["config"] = v2digest
		m["kind"] = kindDelta
	})
	if err := resumeErr(dir); err == nil || !containsAll(err.Error(), "version 2", "refusing to guess") {
		t.Fatalf("v2 delta: %v", err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !bytes.Contains([]byte(s), []byte(sub)) {
			return false
		}
	}
	return true
}

// TestDeltaHistoryKeepsOpenDay checkpoints between two events of the
// same day, as the daemon's drain checkpoint does. The day is still
// open at the first save, so the delta after it must carry that day
// again with its later counts: a resume from the delta rebuilds the
// live stream's day stats exactly.
func TestDeltaHistoryKeepsOpenDay(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := RunOptions{CheckpointDir: dir, CheckpointFullEvery: 4}
	s := em.NewStream(em.NewFLT(), o)
	first := ds.Accesses[0]
	second := first
	second.TS = first.TS.Add(timeutil.Minute)
	second.Path = first.Path + ".2"
	for _, a := range []*trace.Access{&first, &second} {
		if err := s.Apply(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(a.TS); err != nil {
			t.Fatal(err)
		}
	}
	if _, cs := latestState(t, dir); cs.Kind != kindDelta || cs.DaysFrom != 0 || len(cs.Days) != 1 || cs.Days[0].Accesses != 2 {
		t.Fatalf("delta after a mid-day save: kind %q, days from %d, %d days %+v; want the open day again with 2 accesses",
			cs.Kind, cs.DaysFrom, len(cs.Days), cs.Days)
	}
	got, err := em.ResumeStream(em.NewFLT(), o)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Result(); !reflect.DeepEqual(got.Result().Days, want.Days) || got.Result().TotalAccesses != want.TotalAccesses {
		t.Fatalf("resumed days %+v, want %+v", got.Result().Days, want.Days)
	}
}

// TestDeltaPruneProtectsBaseChain: with long delta chains (full every
// 10th checkpoint) pruning must keep every chain member the newest
// checkpoints transitively base on, and a cold resume at end-of-run
// must rebuild the exact final state from that chain.
func TestDeltaPruneProtectsBaseChain(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	dir := t.TempDir()
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := RunOptions{CheckpointDir: dir, CheckpointEvery: 1, CheckpointFullEvery: 10}
	want, err := em1.RunWith(policyFor(t, em1, "activedr"), o)
	if err != nil {
		t.Fatal(err)
	}
	name, cs := latestState(t, dir)
	if cs.Kind != kindDelta {
		t.Fatalf("fixture: latest checkpoint %s is %q, want a delta", name, cs.Kind)
	}
	// Walk the chain: every member must have survived pruning.
	links := 0
	for cs.Kind == kindDelta {
		if cs.Base == "" {
			t.Fatalf("delta %s has no base", name)
		}
		name = cs.Base
		blob, err := os.ReadFile(filepath.Join(dir, name, stateFile))
		if err != nil {
			t.Fatalf("base chain member pruned: %v", err)
		}
		cs = checkpointState{}
		if err := json.Unmarshal(blob, &cs); err != nil {
			t.Fatal(err)
		}
		links++
	}
	if links == 0 {
		t.Fatal("fixture produced no delta links")
	}
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(policyFor(t, em2, "activedr"), o)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}
