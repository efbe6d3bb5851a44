package sim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/retention"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
)

// policyFor builds a named policy fresh, so interrupted and resumed
// runs never share mutable policy state.
func policyFor(t *testing.T, em *Emulator, name string) retention.Policy {
	t.Helper()
	if name == "flt" {
		return em.NewFLT()
	}
	adr, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	return adr
}

// stripElapsed zeroes the wall-clock fields, the only Result content
// allowed to differ between an uninterrupted and a resumed run.
func stripElapsed(r *Result) {
	r.Elapsed = 0
	for _, rep := range r.Reports {
		rep.Elapsed = 0
	}
}

// requireSameResult asserts bit-for-bit equivalence of two runs:
// misses, per-group series, per-day stats, every purge report, and
// the final (and captured) file-system state.
func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	stripElapsed(want)
	stripElapsed(got)

	wf, gf := want.Final, got.Final
	wc, gc := want.Captured, got.Captured
	want.Final, got.Final = nil, nil
	want.Captured, got.Captured = nil, nil
	defer func() {
		want.Final, got.Final = wf, gf
		want.Captured, got.Captured = wc, gc
	}()

	if !reflect.DeepEqual(want, got) {
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		t.Fatalf("results diverge:\n want %s\n got  %s", wb, gb)
	}
	if (wf == nil) != (gf == nil) {
		t.Fatal("one run lacks a final file system")
	}
	if wf != nil && !reflect.DeepEqual(wf.Snapshot(0).Entries, gf.Snapshot(0).Entries) {
		t.Fatal("final file-system states diverge")
	}
	if (wc == nil) != (gc == nil) {
		t.Fatal("captured state presence diverges")
	}
	if wc != nil && !reflect.DeepEqual(wc.Snapshot(0).Entries, gc.Snapshot(0).Entries) {
		t.Fatal("captured file-system states diverge")
	}
}

// TestCheckpointResumeDeterminism is the kill-and-resume equivalence
// check of the acceptance criteria: a run interrupted at a mid-year
// trigger and resumed from its checkpoint must reproduce the
// uninterrupted run's Result exactly, for both policies, at several
// interruption points, with and without fault injection.
func TestCheckpointResumeDeterminism(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 7, 1), SnapshotEvery: timeutil.Days(28)}

	for _, pol := range []string{"flt", "activedr"} {
		for _, faulty := range []bool{false, true} {
			fcfg := faults.Config{Seed: 123, UnlinkFailProb: 0.2, ScanInterruptProb: 0.3}
			newInjector := func() *faults.Injector {
				if !faulty {
					return nil
				}
				return faults.New(fcfg)
			}

			em, err := New(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := em.RunWith(policyFor(t, em, pol), RunOptions{Faults: newInjector()})
			if err != nil {
				t.Fatal(err)
			}

			for _, stopAt := range []int{1, 5, 20} {
				dir := t.TempDir()
				em1, err := New(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				partial, err := em1.RunWith(policyFor(t, em1, pol), RunOptions{
					CheckpointDir:     dir,
					Faults:            newInjector(),
					StopAfterTriggers: stopAt,
				})
				if !errors.Is(err, ErrInterrupted) {
					t.Fatalf("stop=%d: err = %v, want ErrInterrupted", stopAt, err)
				}
				if partial == nil || len(partial.Reports) != stopAt {
					t.Fatalf("stop=%d: partial result has %d reports", stopAt, len(partial.Reports))
				}
				if !HasCheckpoint(dir) {
					t.Fatalf("stop=%d: no checkpoint written", stopAt)
				}

				// A brand-new emulator and policy: nothing survives the
				// "kill" except the checkpoint directory and the dataset.
				em2, err := New(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := em2.Resume(policyFor(t, em2, pol), RunOptions{
					CheckpointDir: dir,
					Faults:        newInjector(),
				})
				if err != nil {
					t.Fatalf("stop=%d: resume: %v", stopAt, err)
				}
				requireSameResult(t, want, got)
			}
		}
	}
}

// TestResumeViaPackageFunc exercises the convenience entry point that
// rebuilds the emulator from scratch.
func TestResumeViaPackageFunc(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 3}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	got, err := Resume(ds, cfg, &retention.FLT{Lifetime: timeutil.Days(90)}, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

func TestResumeRejectsMismatches(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inj := faults.New(faults.Config{Seed: 1, UnlinkFailProb: 0.5})
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, Faults: inj, StopAfterTriggers: 2}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}

	// Wrong policy.
	adr, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Resume(adr, RunOptions{CheckpointDir: dir, Faults: inj}); err == nil {
		t.Fatal("policy mismatch accepted")
	}
	// Wrong configuration.
	em2, err := New(ds, Config{TargetUtilization: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em2.Resume(em2.NewFLT(), RunOptions{CheckpointDir: dir, Faults: inj}); err == nil {
		t.Fatal("config mismatch accepted")
	}
	// Fault state present but no injector supplied.
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir}); err == nil {
		t.Fatal("missing injector accepted")
	}
	// No checkpoint at all.
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: t.TempDir()}); err == nil {
		t.Fatal("empty checkpoint dir accepted")
	}
	if HasCheckpoint(t.TempDir()) {
		t.Fatal("HasCheckpoint true on empty dir")
	}
}

func TestCheckpointPruning(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs := 0
	for _, ent := range ents {
		if ent.IsDir() {
			dirs++
		}
	}
	if dirs > keepCheckpoints {
		t.Fatalf("%d checkpoint dirs kept, want ≤ %d", dirs, keepCheckpoints)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("no resumable checkpoint after full run")
	}
}

// TestCheckpointEverySpacing verifies CheckpointEvery thins the
// checkpoint cadence without breaking resumability.
func TestCheckpointEverySpacing(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Stop at a trigger that is NOT a checkpoint boundary: resume must
	// re-replay from the older checkpoint and still match.
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, CheckpointEvery: 4, StopAfterTriggers: 6}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if name != "t000004" {
		t.Fatalf("latest checkpoint = %s, want t000004", name)
	}
	got, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

// TestFaultedRunCompletesAndConverges is the fault half of the
// acceptance criteria on a full synthetic workload: a replay with
// injected purge failures completes without panic, observes
// FailedPurges > 0, and — once faults clear mid-year — ActiveDR
// returns to its target utilization.
func TestFaultedRunCompletesAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic year-long replay")
	}
	d, err := synth.Generate(synth.Config{Seed: 11, Users: 400})
	if err != nil {
		t.Fatal(err)
	}
	em, err := New(d, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	clearAt := timeutil.Date(2016, 7, 1)
	inj := faults.New(faults.Config{
		Seed:              99,
		UnlinkFailProb:    0.5,
		ScanInterruptProb: 0.5,
		ClearAfter:        clearAt,
	})
	adr, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.RunWith(adr, RunOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	var failed int64
	var interrupted int
	for _, rep := range res.Reports {
		failed += rep.FailedPurges
		if rep.Incomplete {
			interrupted++
		}
	}
	if failed == 0 {
		t.Fatal("no failed purges observed under 50% unlink failure")
	}
	if interrupted == 0 {
		t.Fatal("no interrupted scans observed under 50% interrupt probability")
	}
	t.Logf("faulted run: %d failed purges, %d interrupted scans, %d misses",
		failed, interrupted, res.TotalMisses)
	// After the faults clear, every remaining trigger must hit its
	// purge target again: the policy converges, degradation is bounded.
	converged := 0
	for _, rep := range res.Reports {
		if rep.At < clearAt.Add(timeutil.Days(7)) {
			continue
		}
		converged++
		if !rep.TargetReached {
			t.Errorf("trigger %s missed target after faults cleared", rep.At.DateString())
		}
		if rep.FailedPurges != 0 || rep.Incomplete {
			t.Errorf("trigger %s still faulted after ClearAfter", rep.At.DateString())
		}
	}
	if converged == 0 {
		t.Fatal("no post-clear triggers examined")
	}
	cap := em.Config().Capacity
	util := float64(res.Final.TotalBytes()) / float64(cap)
	t.Logf("final utilization %.1f%% of capacity", 100*util)
	// The final state sits at/below target plus the growth since the
	// last trigger (one interval of fresh writes).
	if last := res.Reports[len(res.Reports)-1]; !last.TargetReached {
		t.Fatal("final trigger did not reach target")
	}
}

// TestCheckpointSurvivesSnapshotSeries ensures the snapshot-series
// sidecars roundtrip (same count, same capture times).
func TestCheckpointSurvivesSnapshotSeries(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, SnapshotEvery: timeutil.Days(14)}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 10}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	// The checkpoint must physically contain the series so far.
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, name, snapsSubdir, "s*.bin"))
	if len(matches) == 0 {
		t.Fatal("no snapshot sidecars in checkpoint")
	}
	got, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("snapshot series length %d, want %d", len(got.Snapshots), len(want.Snapshots))
	}
	for i := range want.Snapshots {
		if got.Snapshots[i].Taken != want.Snapshots[i].Taken {
			t.Errorf("snapshot %d taken %v, want %v", i, got.Snapshots[i].Taken, want.Snapshots[i].Taken)
		}
		if !reflect.DeepEqual(got.Snapshots[i].Entries, want.Snapshots[i].Entries) {
			t.Errorf("snapshot %d entries diverge", i)
		}
	}
}

// TestDigestGolden pins the exact config fingerprints checkpoints
// carry. Resume compares them as strings, so any drift in the format —
// a field added, removed, renamed or reformatted — would orphan every
// checkpoint already on disk. The expected strings are literals on
// purpose: computing them in-process would drift along with the code.
func TestDigestGolden(t *testing.T) {
	if checkpointVersion != 4 {
		t.Fatalf("checkpointVersion = %d, want 4", checkpointVersion)
	}
	def := Config{}.Defaults()
	paper := def
	paper.TargetUtilization = 0.5
	paper.Capacity = 123456789
	for _, tc := range []struct {
		name, got, want string
	}{
		{"default v4", def.digest(),
			"v4 life=7776000 period=7776000 trig=604800 util=0 cap=0 retro=5 decay=0.8 capture=0 snap=0 logins=false transfers=false eq7=false order=0 sel=false"},
		{"default v3", def.digestAt(3),
			"v3 life=7776000 period=7776000 trig=604800 util=0 cap=0 retro=5 decay=0.8 capture=0 snap=0 logins=false transfers=false eq7=false order=0 sel=false"},
		{"default v2", def.digestV2(),
			"v2 life=7776000 period=7776000 trig=604800 util=0 cap=0 retro=5 decay=0.8 capture=0 snap=0 logins=false transfers=false eq7=false order=0 sel=false"},
		{"target and capacity v3", paper.digestAt(3),
			"v3 life=7776000 period=7776000 trig=604800 util=0.5 cap=123456789 retro=5 decay=0.8 capture=0 snap=0 logins=false transfers=false eq7=false order=0 sel=false"},
		{"target and capacity v4", paper.digest(),
			"v4 life=7776000 period=7776000 trig=604800 util=0.5 cap=123456789 retro=5 decay=0.8 capture=0 snap=0 logins=false transfers=false eq7=false order=0 sel=false"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s digest changed:\n got  %s\n want %s", tc.name, tc.got, tc.want)
		}
	}
}
