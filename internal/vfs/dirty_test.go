package vfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// dirtyOracle is the brute-force working set: the paths whose
// mutations reported a change, each looked up afresh when checked.
type dirtyOracle map[string]struct{}

func (o dirtyOracle) want(ns Namespace) []DirtyEntry {
	paths := make([]string, 0, len(o))
	for p := range o {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	out := make([]DirtyEntry, 0, len(paths))
	for _, p := range paths {
		m, ok := ns.Lookup(p)
		out = append(out, DirtyEntry{Path: p, Meta: m, Live: ok})
	}
	return out
}

// checkDirty compares AppendDirty against the oracle. It appends after
// a sentinel to pin the append contract, and twice to pin that reading
// the set leaves it as it was.
func checkDirty(t *testing.T, label string, ns Namespace, o dirtyOracle) {
	t.Helper()
	want := o.want(ns)
	sentinel := DirtyEntry{Path: "sentinel"}
	for round := 0; round < 2; round++ {
		got := ns.AppendDirty([]DirtyEntry{sentinel})
		if got[0] != sentinel {
			t.Fatalf("%s: AppendDirty overwrote dst[0] with %+v", label, got[0])
		}
		if got = got[1:]; !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("%s (read %d):\n got %+v\nwant %+v", label, round+1, got, want)
		}
	}
}

// dirtyPaths is a small namespace dense in shared prefixes: files that
// are prefixes of other files, and siblings whose deletion merges the
// survivor's parent edge into it.
func dirtyPaths() []string {
	var paths []string
	for _, dir := range []string{"/p/d", "/p/d1", "/p/d12", "/p/e"} {
		paths = append(paths, dir)
		for _, f := range []string{"/f", "/f1", "/f10", "/g"} {
			paths = append(paths, dir+f)
		}
	}
	return paths
}

func randMeta(rng *rand.Rand, ts timeutil.Time) FileMeta {
	return FileMeta{User: trace.UserID(rng.Intn(4)), Size: int64(rng.Intn(1000)), Stripes: 1 + rng.Intn(4), ATime: ts}
}

// TestAppendDirtyMatchesOracle drives a private FS through random
// Insert/Touch/Remove sequences, resetting the set now and then, and
// checks the working set after every operation.
func TestAppendDirtyMatchesOracle(t *testing.T) {
	paths := dirtyPaths()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := New()
		for i, p := range paths {
			if i%2 == 0 {
				if err := fs.Insert(p, randMeta(rng, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		fs.TrackDirty()
		o := dirtyOracle{}
		ts := timeutil.Time(10)
		for step := 0; step < 3000; step++ {
			ts += timeutil.Time(rng.Intn(3)) // repeats keep atime unchanged
			p := paths[rng.Intn(len(paths))]
			var op string
			switch r := rng.Intn(100); {
			case r < 35:
				op = "insert"
				if err := fs.Insert(p, randMeta(rng, ts)); err != nil {
					t.Fatal(err)
				}
				o[p] = struct{}{}
			case r < 65:
				op = "touch"
				if fs.Touch(p, ts) {
					o[p] = struct{}{}
				}
			case r < 95:
				op = "remove"
				if _, ok := fs.Remove(p); ok {
					o[p] = struct{}{}
				}
			default:
				op = "reset"
				fs.ResetDirty()
				clear(o)
			}
			checkDirty(t, fmt.Sprintf("seed %d step %d (%s %s)", seed, step, op, p), fs, o)
		}
	}
}

// TestAppendDirtyNodeCases pins the two node-cache hazards by name:
// a path removed and re-inserted gets a new node, and a sibling delete
// merges the marked node's parent edge into it.
func TestAppendDirtyNodeCases(t *testing.T) {
	m := func(u int, at timeutil.Time) FileMeta {
		return FileMeta{User: trace.UserID(u), Size: 7, Stripes: 1, ATime: at}
	}
	fs := New()
	for _, p := range []string{"/d/x1", "/d/x2", "/d/y"} {
		if err := fs.Insert(p, m(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	fs.TrackDirty()
	o := dirtyOracle{}

	fs.Touch("/d/x1", 5) // marks x1's node
	o["/d/x1"] = struct{}{}
	if _, ok := fs.Remove("/d/x2"); !ok { // merges "/d/x" into x1's node
		t.Fatal("remove /d/x2")
	}
	o["/d/x2"] = struct{}{}
	checkDirty(t, "after sibling merge", fs, o)

	if _, ok := fs.Remove("/d/y"); !ok {
		t.Fatal("remove /d/y")
	}
	if err := fs.Insert("/d/y", m(2, 9)); err != nil { // a fresh node
		t.Fatal(err)
	}
	o["/d/y"] = struct{}{}
	checkDirty(t, "after remove and reinsert", fs, o)

	fs.Touch("/d/x1", 11) // the merged node still carries the mark's state
	checkDirty(t, "after touching the merged node", fs, o)
	if got := fs.AppendDirty(nil); len(got) != 3 || got[0].Meta.ATime != 11 || got[1].Live || got[2].Meta.User != 2 {
		t.Fatalf("working set = %+v", got)
	}

	fs.ResetDirty()
	if got := fs.AppendDirty(nil); len(got) != 0 {
		t.Fatalf("after ResetDirty: %+v", got)
	}
	if got := New().AppendDirty(nil); got != nil {
		t.Fatalf("untracked FS: %+v", got)
	}
}

// TestAppendDirtyLaneViews runs the same check on a LaneGroup's lane
// views: shared runs mark every lane, a lane purge marks only that
// lane, and each lane's entries carry its own (override) metadata.
func TestAppendDirtyLaneViews(t *testing.T) {
	const lanes = 3
	paths := dirtyPaths()
	rng := rand.New(rand.NewSource(29))
	base := New()
	for i, p := range paths {
		if i%3 != 0 {
			if err := base.Insert(p, randMeta(rng, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	group, err := NewLaneGroup(base, lanes, len(paths))
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]dirtyOracle, lanes)
	for i := range oracles {
		group.Lane(i).TrackDirty()
		oracles[i] = dirtyOracle{}
	}
	ts := timeutil.Time(10)
	for step := 0; step < 3000; step++ {
		pid := rng.Intn(len(paths))
		p := paths[pid]
		switch r := rng.Intn(100); {
		case r < 60:
			evs := make([]RunEvent, 1+rng.Intn(3))
			for i := range evs {
				ts += timeutil.Time(1 + rng.Intn(5))
				evs[i] = RunEvent{User: trace.UserID(rng.Intn(4)), Size: int64(rng.Intn(1000)), TS: ts, Create: rng.Intn(4) == 0}
			}
			group.ApplyRun(int32(pid), p, evs)
			for _, o := range oracles {
				o[p] = struct{}{}
			}
		case r < 95:
			i := rng.Intn(lanes)
			if _, ok := group.Lane(i).Remove(p); ok {
				oracles[i][p] = struct{}{}
			}
		default:
			i := rng.Intn(lanes)
			group.Lane(i).ResetDirty()
			clear(oracles[i])
		}
		for i, o := range oracles {
			checkDirty(t, fmt.Sprintf("step %d lane %d (%s)", step, i, p), group.Lane(i), o)
		}
	}
}
