package vfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// TestLaneGroupMatchesDedicated drives a lane group and per-lane
// dedicated clones through the same schedule — day-batched ApplyRun
// churn with monotone timestamps, interleaved per-lane stale scans and
// RemoveCandidate purges at batch boundaries — and requires identical
// observable state throughout: miss masks, candidate lists,
// accounting, and the final snapshot. This pins the multiplexed fast
// paths (skip masks, node handles, dense accounting) directly at the
// vfs layer, beneath the sim-level equivalence suite.
func TestLaneGroupMatchesDedicated(t *testing.T) {
	const (
		lanes = 3
		users = 6
		days  = 40
	)
	rng := rand.New(rand.NewSource(17))
	day := timeutil.Time(daySeconds)

	base := New()
	paths := make([]string, 120)
	for i := range paths {
		paths[i] = fmt.Sprintf("/scratch/u%d/run%03d/out.dat", i%users, i)
		if i%3 == 0 {
			continue // a third of the namespace starts absent
		}
		m := FileMeta{
			User:    trace.UserID(i % users),
			Size:    int64(rng.Intn(900)) + 1,
			Stripes: 1,
			ATime:   timeutil.Time(rng.Int63n(int64(5 * day))),
		}
		if err := base.Insert(paths[i], m); err != nil {
			t.Fatal(err)
		}
	}

	group, err := NewLaneGroup(base, lanes, len(paths))
	if err != nil {
		t.Fatal(err)
	}
	ded := make([]*FS, lanes)
	for i := range ded {
		ded[i] = base.Clone()
	}

	// applyDedicated mirrors the replay's per-event semantics
	// (sim.Stream.Apply): create inserts, a touch hit renews, a touch
	// miss re-inserts. Returns whether the first event missed.
	applyDedicated := func(fs *FS, path string, evs []RunEvent) bool {
		missed := false
		for ei, ev := range evs {
			m := FileMeta{User: ev.User, Size: ev.Size, Stripes: 1, ATime: ev.TS}
			if ev.Create {
				if err := fs.Insert(path, m); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if fs.Touch(path, ev.TS) {
				continue
			}
			if ei != 0 {
				t.Fatalf("dedicated lane missed %q on event %d of a run", path, ei)
			}
			missed = true
			if err := fs.Insert(path, m); err != nil {
				t.Fatal(err)
			}
		}
		return missed
	}

	checkAccounting := func(d int) {
		t.Helper()
		for i := 0; i < lanes; i++ {
			lane := group.Lane(i)
			if got, want := lane.Count(), ded[i].Count(); got != want {
				t.Fatalf("day %d lane %d: Count %d != dedicated %d", d, i, got, want)
			}
			if got, want := lane.TotalBytes(), ded[i].TotalBytes(); got != want {
				t.Fatalf("day %d lane %d: TotalBytes %d != dedicated %d", d, i, got, want)
			}
			if got, want := lane.Users(), ded[i].Users(); !reflect.DeepEqual(got, want) {
				t.Fatalf("day %d lane %d: Users %v != dedicated %v", d, i, got, want)
			}
			for u := trace.UserID(0); u < users; u++ {
				if got, want := lane.UserBytes(u), ded[i].UserBytes(u); got != want {
					t.Fatalf("day %d lane %d user %d: bytes %d != %d", d, i, u, got, want)
				}
				if got, want := lane.UserFiles(u), ded[i].UserFiles(u); got != want {
					t.Fatalf("day %d lane %d user %d: files %d != %d", d, i, u, got, want)
				}
			}
		}
	}

	blankNodes := func(cs []Candidate) []Candidate {
		out := append([]Candidate(nil), cs...)
		for i := range out {
			out[i].node = nil
		}
		return out
	}

	ts := 6 * day // strictly after every seeded atime; advances monotonically
	for d := 0; d < days; d++ {
		// One day's batch: several runs over distinct paths, stream order.
		for r := 0; r < 8; r++ {
			pid := rng.Intn(len(paths))
			evs := make([]RunEvent, 1+rng.Intn(3))
			for ei := range evs {
				ts += timeutil.Time(1 + rng.Int63n(int64(day)/32))
				evs[ei] = RunEvent{
					User:   trace.UserID(rng.Intn(users)),
					Size:   int64(rng.Intn(900)) + 1,
					TS:     ts,
					Create: rng.Intn(5) == 0,
				}
			}
			missMask := group.ApplyRun(int32(pid), paths[pid], evs)
			for i := 0; i < lanes; i++ {
				missed := applyDedicated(ded[i], paths[pid], evs)
				if gotMiss := missMask&(1<<uint(i)) != 0; gotMiss != missed {
					t.Fatalf("day %d lane %d path %q: miss=%v, dedicated %v", d, i, paths[pid], gotMiss, missed)
				}
			}
		}

		// Batch boundary: each lane scans with its own cutoff (staggered
		// lifetimes, so lanes diverge) and purges a pseudo-random subset
		// via RemoveCandidate. Scanning twice exercises the skip masks:
		// the second scan of an exhausted bucket must yield the same
		// answer through the mask's fast path.
		if d%4 == 3 {
			for i := 0; i < lanes; i++ {
				lane := group.Lane(i)
				cutoff := ts - timeutil.Time(5+3*i)*day
				for u := trace.UserID(0); u < users; u++ {
					got := lane.StaleFiles(u, cutoff)
					want := ded[i].StaleFiles(u, cutoff)
					if !reflect.DeepEqual(blankNodes(got), blankNodes(want)) {
						t.Fatalf("day %d lane %d user %d: stale %v != dedicated %v", d, i, u, got, want)
					}
					for ci, c := range got {
						if (u+trace.UserID(ci))%3 != 0 {
							continue
						}
						gm, gok := lane.RemoveCandidate(c)
						dm, dok := ded[i].RemoveCandidate(want[ci])
						if gok != dok || gm != dm {
							t.Fatalf("day %d lane %d: RemoveCandidate(%q) = (%v,%v), dedicated (%v,%v)",
								d, i, c.Path, gm, gok, dm, dok)
						}
					}
					again := lane.StaleFiles(u, cutoff)
					wantAgain := ded[i].StaleFiles(u, cutoff)
					if !reflect.DeepEqual(blankNodes(again), blankNodes(wantAgain)) {
						t.Fatalf("day %d lane %d user %d: post-purge rescan diverges", d, i, u)
					}
				}
			}
		}
		checkAccounting(d)
	}

	// Final deep comparison: full metadata snapshots must agree.
	for i := 0; i < lanes; i++ {
		if !reflect.DeepEqual(group.Lane(i).Snapshot(0).Entries, ded[i].Snapshot(0).Entries) {
			t.Fatalf("lane %d: final snapshot diverges from dedicated clone", i)
		}
	}
}

// TestRemoveCandidateStaleHint pins the node-hint revalidation:
// removing through a candidate whose cached node was invalidated (the
// file was removed and its path re-created, so the node is stale or
// re-used) must behave exactly like a path-addressed Remove.
func TestRemoveCandidateStaleHint(t *testing.T) {
	day := timeutil.Time(daySeconds)
	base := New()
	if err := base.Insert("/a/f", FileMeta{User: 1, Size: 10, Stripes: 1, ATime: day}); err != nil {
		t.Fatal(err)
	}
	group, err := NewLaneGroup(base, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := group.Lane(0), group.Lane(1)

	cands := l0.StaleFiles(1, 10*day)
	if len(cands) != 1 {
		t.Fatalf("stale = %v, want one candidate", cands)
	}
	c := cands[0]

	// Lane 0 purges, then the file is re-created for everyone with a
	// fresh atime. The old candidate now names a live file the lane
	// holds again — but under different metadata, so removing through
	// the stale candidate must remove the CURRENT file, like Remove.
	if _, ok := l0.RemoveCandidate(c); !ok {
		t.Fatal("first RemoveCandidate failed")
	}
	group.ApplyRun(0, "/a/f", []RunEvent{{User: 1, Size: 99, TS: 20 * day, Create: true}})
	m, ok := l0.RemoveCandidate(c)
	if !ok || m.Size != 99 || m.ATime != 20*day {
		t.Fatalf("RemoveCandidate after re-create = (%+v, %v), want the recreated file", m, ok)
	}
	if l0.UserFiles(1) != 0 {
		t.Fatalf("lane 0 still accounts %d files for user 1", l0.UserFiles(1))
	}
	// Lane 1 never purged: it must still hold the re-created file.
	if l1.UserFiles(1) != 1 || l1.UserBytes(1) != 99 {
		t.Fatalf("lane 1 accounting (%d files, %d bytes), want (1, 99)", l1.UserFiles(1), l1.UserBytes(1))
	}
	// A candidate for a file that no longer exists anywhere must fail.
	if _, ok := l0.RemoveCandidate(c); ok {
		t.Fatal("RemoveCandidate succeeded on an absent file")
	}
}

// TestApplyRunOnInnerNodePath: a path that names only an inner tree
// node (a split edge, or a file every lane purged while a longer path
// still hangs off it) holds no file, so a run on it must insert one.
func TestApplyRunOnInnerNodePath(t *testing.T) {
	base := New()
	for _, p := range []string{"/a/file1x", "/a/file1y", "/b/f", "/b/f0"} {
		if err := base.Insert(p, FileMeta{User: 1, Size: 3, Stripes: 1, ATime: 1}); err != nil {
			t.Fatal(err)
		}
	}
	group, err := NewLaneGroup(base, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := group.Lane(i).Remove("/b/f"); !ok {
			t.Fatalf("lane %d: remove /b/f", i)
		}
	}
	runs := []struct {
		path   string
		create bool
		miss   uint64
	}{
		{"/a/file1", true, 0}, // the split node between file1x and file1y
		{"/b/f", false, 0b11}, // purged by both lanes; /b/f0 keeps its node
	}
	for pid, r := range runs {
		ev := RunEvent{User: 2, Size: 9, TS: 5, Create: r.create}
		if miss := group.ApplyRun(int32(pid), r.path, []RunEvent{ev}); miss != r.miss {
			t.Fatalf("%s: miss mask %b, want %b", r.path, miss, r.miss)
		}
		for i := 0; i < 2; i++ {
			m, ok := group.Lane(i).Lookup(r.path)
			if !ok || m.User != 2 || m.Size != 9 {
				t.Fatalf("lane %d: Lookup(%s) = %+v, %v after the run", i, r.path, m, ok)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if got := group.Lane(i).Count(); got != 5 {
			t.Fatalf("lane %d: Count %d, want 5", i, got)
		}
	}
}
