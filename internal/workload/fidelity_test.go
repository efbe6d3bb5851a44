package workload

// Reconstruction fidelity: the acceptance checks for the
// TraceTracker-style fit/regen loop.
//
//   - At 1x, a fitted-and-regenerated trace must reproduce the source's
//     per-user activeness-class shares and per-policy purge totals
//     within 5% of the source replay.
//   - At 10x, the upscaled trace must replay end-to-end through the
//     snapfile path without materializing the snapshot in the
//     dataset.

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// replayTotals runs both policies and returns (purged bytes, misses)
// per policy keyed "flt"/"activedr".
func replayTotals(t *testing.T, em *sim.Emulator) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	flt, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	adrPolicy, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	adr, err := em.Run(adrPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(r *sim.Result) [2]int64 {
		var b int64
		for _, rep := range r.Reports {
			b += rep.PurgedBytes
		}
		return [2]int64{b, r.TotalMisses}
	}
	out["flt"] = sum(flt)
	out["activedr"] = sum(adr)
	return out
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

var fidelityCfg = sim.Config{
	Lifetime:          timeutil.Days(90),
	TriggerInterval:   timeutil.Days(7),
	TargetUtilization: 0.5,
}

// TestReconstructionFidelity1x is the 5% acceptance check, run on the
// bundled IN2P3 sample: fit the adapted trace, regenerate at 1x, and
// compare class shares and per-policy purge totals against the source
// replay.
func TestReconstructionFidelity1x(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}

	// The model must serialize and come back identical — the tracegen
	// -fit / -scale flags pass through this file.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Fatal("model does not survive the JSON round trip")
	}

	regen, err := Regen(loaded, RegenConfig{Scale: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(regen.Users) != len(src.Users) {
		t.Fatalf("1x regen has %d users, want %d", len(regen.Users), len(src.Users))
	}
	// Snapshot mass is pinned exactly, not just within tolerance: the
	// strata carry exact per-user byte masses.
	if got, want := regen.Snapshot.TotalBytes(), src.Snapshot.TotalBytes(); got != want {
		t.Fatalf("1x regen snapshot bytes = %d, want exactly %d", got, want)
	}
	if got, want := len(regen.Snapshot.Entries), len(src.Snapshot.Entries); got != want {
		t.Fatalf("1x regen snapshot files = %d, want exactly %d", got, want)
	}

	// Class shares: refit the regenerated trace; every class's share
	// must land within 5 percentage points of the source fit.
	refit, err := Fit(regen)
	if err != nil {
		t.Fatal(err)
	}
	srcShares, regenShares := m.ClassShares(), refit.ClassShares()
	for _, class := range []string{ClassDormant, ClassCasual, ClassSteady, ClassPower} {
		if diff := math.Abs(srcShares[class] - regenShares[class]); diff > 0.05 {
			t.Errorf("class %q share drifted %.3f (source %.3f, regen %.3f)",
				class, diff, srcShares[class], regenShares[class])
		}
	}

	// Per-policy purge totals within 5% of the source replay.
	srcEm, err := sim.New(src, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	regenEm, err := sim.New(regen, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	srcTotals := replayTotals(t, srcEm)
	regenTotals := replayTotals(t, regenEm)
	for policy, want := range srcTotals {
		got := regenTotals[policy]
		if !within(float64(got[0]), float64(want[0]), 0.05) {
			t.Errorf("%s purge total %d vs source %d: off by %.1f%%, want <= 5%%",
				policy, got[0], want[0], 100*math.Abs(float64(got[0]-want[0]))/float64(want[0]))
		}
		t.Logf("%s: purged %d (source %d), misses %d (source %d)",
			policy, got[0], want[0], got[1], want[1])
	}
}

// TestRegenDeterminism pins the regeneration contract: same model,
// same config, bit-identical dataset; a different seed varies it.
func TestRegenDeterminism(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Regen(m, RegenConfig{Scale: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Regen(m, RegenConfig{Scale: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("regen is not deterministic")
	}
	c, err := Regen(m, RegenConfig{Scale: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Accesses, c.Accesses) {
		t.Fatal("seed did not vary the regenerated accesses")
	}
	// Scale multiplies the population and the snapshot mass exactly.
	if len(a.Users) != 2*len(src.Users) {
		t.Fatalf("2x regen has %d users, want %d", len(a.Users), 2*len(src.Users))
	}
	if got, want := a.Snapshot.TotalBytes(), 2*src.Snapshot.TotalBytes(); got != want {
		t.Fatalf("2x regen snapshot bytes = %d, want exactly %d", got, want)
	}
}

// TestStreamSnapshotMatchesRegen proves the streaming path emits the
// same namespace Regen materializes, in strictly ascending path order
// — the invariant the snapfile writer keys on.
func TestStreamSnapshotMatchesRegen(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RegenConfig{Scale: 3, Seed: 17}
	full, err := Regen(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []trace.SnapshotEntry
	n, err := StreamSnapshot(m, cfg, func(e trace.SnapshotEntry) error {
		streamed = append(streamed, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(streamed) || !reflect.DeepEqual(streamed, full.Snapshot.Entries) {
		t.Fatalf("streamed snapshot (%d entries) differs from the materialized one (%d)",
			len(streamed), len(full.Snapshot.Entries))
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].Path <= streamed[i-1].Path {
			t.Fatalf("stream not strictly ascending at %d: %q then %q",
				i, streamed[i-1].Path, streamed[i].Path)
		}
	}
}

// TestUpscaleReplaysOutOfCore is the 10x acceptance check: regenerate
// at 10x with the snapshot left out of the dataset, stream it into a
// snapfile, and replay both policies against the tree decoded from
// it — the exact out-of-core path a full-scale run takes.
func TestUpscaleReplaysOutOfCore(t *testing.T) {
	src, _ := loadSample(t)
	m, err := Fit(src)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 10
	cfg := RegenConfig{Scale: scale, Seed: 23, SkipSnapshot: true}
	ds, err := Regen(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Snapshot.Entries) != 0 {
		t.Fatal("SkipSnapshot materialized snapshot entries anyway")
	}
	if len(ds.Users) != scale*len(src.Users) {
		t.Fatalf("10x regen has %d users, want %d", len(ds.Users), scale*len(src.Users))
	}

	snap := filepath.Join(t.TempDir(), "fs.snap")
	w, err := vfs.NewSnapfileWriter(snap, m.Taken)
	if err != nil {
		t.Fatal(err)
	}
	nStreamed, err := StreamSnapshot(m, cfg, func(e trace.SnapshotEntry) error {
		return w.Add(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
	})
	if err != nil {
		w.Abort()
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}

	sf, err := vfs.OpenSnapfile(snap)
	if err != nil {
		t.Fatal(err)
	}
	base, err := vfs.LoadSnapfileFS(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	ds.Snapshot.Taken = sf.Taken()

	em, err := sim.NewWithBase(ds, base, fidelityCfg)
	if err != nil {
		t.Fatal(err)
	}
	totals := replayTotals(t, em)
	for policy, got := range totals {
		if got[0] == 0 {
			t.Errorf("%s purged nothing on the 10x replay", policy)
		}
		t.Logf("10x %s: purged %d bytes, %d misses", policy, got[0], got[1])
	}
	if nStreamed != scale*len(src.Snapshot.Entries) {
		t.Fatalf("streamed %d snapshot entries, want %d", nStreamed, scale*len(src.Snapshot.Entries))
	}
}
