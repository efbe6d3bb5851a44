package vfs

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

var t0 = timeutil.Date(2016, time.January, 1)

func meta(u trace.UserID, size int64) FileMeta {
	return FileMeta{User: u, Size: size, Stripes: 1, ATime: t0}
}

func TestInsertLookupRemove(t *testing.T) {
	fs := New()
	paths := []string{
		"/lustre/atlas/u000/a.dat",
		"/lustre/atlas/u000/a.dat.idx",
		"/lustre/atlas/u000/ab.dat",
		"/lustre/atlas/u001/a.dat",
		"/lustre/atlas2/u000/a.dat",
	}
	for i, p := range paths {
		if err := fs.Insert(p, meta(trace.UserID(i%2), int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Count() != len(paths) {
		t.Fatalf("Count = %d, want %d", fs.Count(), len(paths))
	}
	for i, p := range paths {
		m, ok := fs.Lookup(p)
		if !ok {
			t.Fatalf("Lookup(%q) missing", p)
		}
		if m.Size != int64(100*(i+1)) {
			t.Fatalf("Lookup(%q).Size = %d", p, m.Size)
		}
	}
	if fs.Contains("/lustre/atlas/u000/a") {
		t.Error("prefix of a stored path must not be a file")
	}
	if fs.Contains("/lustre/atlas/u000/a.dat.idx.extra") {
		t.Error("extension of a stored path must not be a file")
	}
	m, ok := fs.Remove("/lustre/atlas/u000/a.dat")
	if !ok || m.Size != 100 {
		t.Fatalf("Remove returned %+v, %v", m, ok)
	}
	if fs.Contains("/lustre/atlas/u000/a.dat") {
		t.Error("removed path still present")
	}
	if !fs.Contains("/lustre/atlas/u000/a.dat.idx") {
		t.Error("sibling lost after removal")
	}
	if _, ok := fs.Remove("/lustre/atlas/u000/a.dat"); ok {
		t.Error("double remove succeeded")
	}
}

func TestInsertValidation(t *testing.T) {
	fs := New()
	if err := fs.Insert("relative/path", meta(0, 1)); err == nil {
		t.Error("relative path accepted")
	}
	if err := fs.Insert("", meta(0, 1)); err == nil {
		t.Error("empty path accepted")
	}
	if err := fs.Insert("/x", FileMeta{Size: -5}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestReplaceAdjustsAccounting(t *testing.T) {
	fs := New()
	fs.Insert("/a/b", meta(1, 100))
	fs.Insert("/a/b", meta(2, 250))
	if fs.Count() != 1 {
		t.Fatalf("Count = %d, want 1", fs.Count())
	}
	if fs.TotalBytes() != 250 {
		t.Fatalf("TotalBytes = %d, want 250", fs.TotalBytes())
	}
	if fs.UserBytes(1) != 0 || fs.UserFiles(1) != 0 {
		t.Error("old owner accounting not released")
	}
	if fs.UserBytes(2) != 250 || fs.UserFiles(2) != 1 {
		t.Error("new owner accounting wrong")
	}
}

func TestTouch(t *testing.T) {
	fs := New()
	fs.Insert("/a/b", meta(0, 1))
	later := t0.Add(timeutil.Days(5))
	if !fs.Touch("/a/b", later) {
		t.Fatal("Touch of existing file failed")
	}
	m, _ := fs.Lookup("/a/b")
	if m.ATime != later {
		t.Fatalf("ATime = %v, want %v", m.ATime, later)
	}
	if fs.Touch("/a/zzz", later) {
		t.Error("Touch of missing file succeeded")
	}
	if fs.Touch("/a", later) {
		t.Error("Touch of non-terminal node succeeded")
	}
}

func TestWalkLexicographic(t *testing.T) {
	fs := New()
	paths := []string{"/z", "/a/2", "/a/10", "/a/1", "/b", "/a/1x"}
	for _, p := range paths {
		fs.Insert(p, meta(0, 1))
	}
	var got []string
	fs.Walk(func(p string, _ FileMeta) bool {
		got = append(got, p)
		return true
	})
	want := append([]string(nil), paths...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("Walk yielded %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk order: got %v, want %v", got, want)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	fs := New()
	for i := 0; i < 10; i++ {
		fs.Insert(fmt.Sprintf("/f/%02d", i), meta(0, 1))
	}
	n := 0
	fs.Walk(func(string, FileMeta) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestWalkPrefix(t *testing.T) {
	fs := New()
	fs.Insert("/u/alice/a", meta(0, 1))
	fs.Insert("/u/alice/b", meta(0, 1))
	fs.Insert("/u/alicia/c", meta(1, 1))
	fs.Insert("/u/bob/d", meta(2, 1))
	var got []string
	fs.WalkPrefix("/u/alice/", func(p string, _ FileMeta) bool {
		got = append(got, p)
		return true
	})
	if len(got) != 2 || got[0] != "/u/alice/a" || got[1] != "/u/alice/b" {
		t.Fatalf("WalkPrefix = %v", got)
	}
	// Prefix ending mid-edge still works.
	got = nil
	fs.WalkPrefix("/u/alici", func(p string, _ FileMeta) bool {
		got = append(got, p)
		return true
	})
	if len(got) != 1 || got[0] != "/u/alicia/c" {
		t.Fatalf("mid-edge WalkPrefix = %v", got)
	}
	// Missing prefix yields nothing.
	got = nil
	fs.WalkPrefix("/nope", func(p string, _ FileMeta) bool {
		got = append(got, p)
		return true
	})
	if len(got) != 0 {
		t.Fatalf("missing prefix yielded %v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	fs := New()
	fs.Insert("/u/a/1", FileMeta{User: 0, Size: 10, Stripes: 4, ATime: t0})
	fs.Insert("/u/b/2", FileMeta{User: 1, Size: 20, Stripes: 1, ATime: t0.Add(timeutil.Days(1))})
	snap := fs.Snapshot(t0.Add(timeutil.Days(2)))
	if snap.Taken != t0.Add(timeutil.Days(2)) || len(snap.Entries) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	fs2, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.Count() != 2 || fs2.TotalBytes() != 30 {
		t.Fatalf("restored fs: count=%d bytes=%d", fs2.Count(), fs2.TotalBytes())
	}
	m, ok := fs2.Lookup("/u/b/2")
	if !ok || m.Stripes != 1 || m.Size != 20 {
		t.Fatalf("restored meta = %+v, %v", m, ok)
	}
}

func TestClone(t *testing.T) {
	fs := New()
	fs.Insert("/u/a/1", meta(0, 10))
	fs.Insert("/u/b/2", meta(1, 20))
	c := fs.Clone()
	c.Remove("/u/a/1")
	c.Insert("/u/c/3", meta(2, 5))
	if !fs.Contains("/u/a/1") || fs.Contains("/u/c/3") {
		t.Error("clone mutation leaked into original")
	}
	if fs.TotalBytes() != 30 || c.TotalBytes() != 25 {
		t.Errorf("bytes: orig=%d clone=%d", fs.TotalBytes(), c.TotalBytes())
	}
}

func TestReservedSet(t *testing.T) {
	r := NewReservedSet()
	if r.Covers("/anything") {
		t.Error("empty set covers a path")
	}
	r.Add("/u/a/keep.dat")
	r.Add("/u/b/dir")
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	cases := []struct {
		path string
		want bool
	}{
		{"/u/a/keep.dat", true},          // exact
		{"/u/a/keep.dat2", false},        // sibling with extension
		{"/u/a/keep.da", false},          // shorter
		{"/u/b/dir", true},               // exact dir
		{"/u/b/dir/file", true},          // inside dir
		{"/u/b/dir/sub/deep/file", true}, // deep inside dir
		{"/u/b/directory", false},        // prefix but not path-component
		{"/u/c/other", false},            // unrelated
	}
	for _, c := range cases {
		if got := r.Covers(c.path); got != c.want {
			t.Errorf("Covers(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	var nilSet *ReservedSet
	if nilSet.Covers("/x") {
		t.Error("nil set covers a path")
	}
}

// TestAgainstModel drives a long randomized operation sequence against
// a map-based reference model.
func TestAgainstModel(t *testing.T) {
	src := randx.New(1234)
	fs := New()
	model := make(map[string]FileMeta)
	pathPool := make([]string, 400)
	for i := range pathPool {
		pathPool[i] = fmt.Sprintf("/lustre/atlas/u%03d/proj%d/run%02d/file%04d.h5",
			src.Intn(20), src.Intn(3), src.Intn(5), src.Intn(200))
	}
	for step := 0; step < 20000; step++ {
		p := pathPool[src.Intn(len(pathPool))]
		switch src.Intn(4) {
		case 0: // insert/replace
			m := FileMeta{User: trace.UserID(src.Intn(20)), Size: int64(src.Intn(1000)), ATime: t0.Add(timeutil.Duration(src.Intn(1000)))}
			if err := fs.Insert(p, m); err != nil {
				t.Fatal(err)
			}
			model[p] = m
		case 1: // remove
			gotM, gotOK := fs.Remove(p)
			wantM, wantOK := model[p]
			if gotOK != wantOK || (gotOK && gotM != wantM) {
				t.Fatalf("step %d: Remove(%q) = %+v,%v want %+v,%v", step, p, gotM, gotOK, wantM, wantOK)
			}
			delete(model, p)
		case 2: // lookup
			gotM, gotOK := fs.Lookup(p)
			wantM, wantOK := model[p]
			if gotOK != wantOK || (gotOK && gotM != wantM) {
				t.Fatalf("step %d: Lookup(%q) mismatch", step, p)
			}
		case 3: // touch
			at := t0.Add(timeutil.Duration(step))
			got := fs.Touch(p, at)
			_, want := model[p]
			if got != want {
				t.Fatalf("step %d: Touch(%q) = %v want %v", step, p, got, want)
			}
			if want {
				m := model[p]
				m.ATime = at
				model[p] = m
			}
		}
	}
	// Final state equivalence.
	if fs.Count() != len(model) {
		t.Fatalf("Count = %d, model = %d", fs.Count(), len(model))
	}
	var wantBytes int64
	userBytes := make(map[trace.UserID]int64)
	for _, m := range model {
		wantBytes += m.Size
		userBytes[m.User] += m.Size
	}
	if fs.TotalBytes() != wantBytes {
		t.Fatalf("TotalBytes = %d, want %d", fs.TotalBytes(), wantBytes)
	}
	for u, b := range userBytes {
		if fs.UserBytes(u) != b {
			t.Fatalf("UserBytes(%d) = %d, want %d", u, fs.UserBytes(u), b)
		}
	}
	seen := 0
	prev := ""
	fs.Walk(func(p string, m FileMeta) bool {
		if p <= prev && seen > 0 {
			t.Fatalf("Walk order violated: %q after %q", p, prev)
		}
		prev = p
		if wm, ok := model[p]; !ok || wm != m {
			t.Fatalf("Walk yielded unexpected %q", p)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Walk visited %d, want %d", seen, len(model))
	}
}

// Property: insert-then-lookup returns the stored value, and
// insert-then-remove restores non-membership.
func TestInsertRemoveProperty(t *testing.T) {
	f := func(segs [3]uint8, size uint16) bool {
		p := fmt.Sprintf("/q/%d/%d/%d", segs[0], segs[1], segs[2])
		fs := New()
		m := FileMeta{User: 1, Size: int64(size), ATime: t0}
		if err := fs.Insert(p, m); err != nil {
			return false
		}
		got, ok := fs.Lookup(p)
		if !ok || got != m {
			return false
		}
		if _, ok := fs.Remove(p); !ok {
			return false
		}
		return !fs.Contains(p) && fs.Count() == 0 && fs.TotalBytes() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	fs := New()
	if st := fs.Stats(); st.Files != 0 || st.Nodes != 1 {
		t.Fatalf("empty stats = %+v", st)
	}
	fs.Insert("/lustre/atlas/u1/a", meta(0, 1))
	fs.Insert("/lustre/atlas/u1/b", meta(0, 1))
	st := fs.Stats()
	if st.Files != 2 {
		t.Fatalf("Files = %d", st.Files)
	}
	// Path compression: the shared prefix "/lustre/atlas/u1/" is
	// stored once, so label bytes are well below the raw path bytes.
	raw := int64(len("/lustre/atlas/u1/a") + len("/lustre/atlas/u1/b"))
	if st.LabelBytes >= raw {
		t.Fatalf("LabelBytes = %d, want < %d (no compression?)", st.LabelBytes, raw)
	}
	if st.Nodes < 3 {
		t.Fatalf("Nodes = %d", st.Nodes)
	}
}
