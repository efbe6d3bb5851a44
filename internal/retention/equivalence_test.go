package retention

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// randomFS builds a randomized namespace: several users with varied
// file ages (some clustered on the same atime to exercise path
// tiebreaks), plus some churn so the candidate index carries
// tombstones before the purge runs.
func randomFS(rng *rand.Rand, users, files int) (*vfs.FS, []activeness.Rank) {
	fs := vfs.New()
	for i := 0; i < files; i++ {
		u := trace.UserID(rng.Intn(users))
		age := rng.Intn(400)
		if rng.Intn(4) == 0 {
			age = 200 // shared atime: tiebreak territory
		}
		addFile(fs, fmt.Sprintf("/scratch/u%d/d%d/f%03d", u, i%7, i), u, int64(rng.Intn(5000)+1), age)
	}
	// Churn: renew some files, remove some, re-insert one path under a
	// different owner.
	i := 0
	fs.Walk(func(path string, m vfs.FileMeta) bool {
		switch i++; i % 11 {
		case 0:
			fs.Touch(path, tc.Add(-timeutil.Days(rng.Intn(100))))
		case 5:
			fs.Remove(path)
		}
		return true
	})
	addFile(fs, "/scratch/u0/d0/reowned", trace.UserID(users-1), 77, 300)
	ranks := make([]activeness.Rank, users)
	for u := range ranks {
		switch rng.Intn(4) {
		case 0: // both inactive
		case 1:
			ranks[u] = activeness.Rank{Op: rng.Float64() * 3, HasOp: true}
		case 2:
			ranks[u] = activeness.Rank{Oc: rng.Float64() * 3, HasOc: true}
		case 3:
			ranks[u] = ranked(rng.Float64()*3, rng.Float64()*3)
		}
	}
	return fs, ranks
}

// walkSelection is the equivalence oracle for the indexed candidate
// selection: a namespace decorator that answers Users and the stale
// queries the pre-index way. Construction walks the whole namespace
// once and buckets every path by owner; each query then re-filters
// the owner's bucket through Lookup and sorts. It shares no code with
// the per-user atime index, which is what makes agreement meaningful.
// Build one per purge pass: the buckets are the namespace at pass
// start, and a pass only ever removes files.
type walkSelection struct {
	vfs.Namespace
	buckets map[trace.UserID][]string
}

func newWalkSelection(ns vfs.Namespace) *walkSelection {
	w := &walkSelection{Namespace: ns, buckets: make(map[trace.UserID][]string)}
	ns.Walk(func(path string, m vfs.FileMeta) bool {
		w.buckets[m.User] = append(w.buckets[m.User], path)
		return true
	})
	return w
}

func (w *walkSelection) Users() []trace.UserID {
	out := make([]trace.UserID, 0, len(w.buckets))
	for u := range w.buckets {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

func (w *walkSelection) StaleFiles(u trace.UserID, cutoff timeutil.Time) []vfs.Candidate {
	return w.AppendStaleFiles(nil, u, cutoff)
}

func (w *walkSelection) AppendStaleFiles(dst []vfs.Candidate, u trace.UserID, cutoff timeutil.Time) []vfs.Candidate {
	start := len(dst)
	for _, p := range w.buckets[u] {
		m, ok := w.Lookup(p)
		if !ok || m.User != u || m.ATime >= cutoff {
			continue
		}
		dst = append(dst, vfs.Candidate{Path: p, Meta: m})
	}
	part := dst[start:]
	sort.Slice(part, func(i, j int) bool { return candLess(part[i], part[j]) })
	return dst
}

// purgeWith runs one pass of p on fs, through the walk oracle when
// walk is set.
func purgeWith(p Policy, fs *vfs.FS, ranks []activeness.Rank, at timeutil.Time, walk bool) *Report {
	if walk {
		return p.Purge(newWalkSelection(fs), ranks, at)
	}
	return p.Purge(fs, ranks, at)
}

// diffReports compares two purge reports field by field with wall
// clock normalized out.
func diffReports(t *testing.T, label string, a, b *Report) {
	t.Helper()
	na, nb := *a, *b
	na.Elapsed, nb.Elapsed = 0, 0
	if !reflect.DeepEqual(na, nb) {
		t.Errorf("%s: reports differ\n indexed: %+v\n walk:    %+v", label, na, nb)
	}
}

// TestIndexedSelectionEquivalence proves the tentpole contract at the
// policy level: on randomized namespaces, with and without fault
// injection, the indexed selection path produces bit-identical
// reports — including victim sequences, group accounting, fault
// outcomes and the post-purge namespace — to the walk oracle.
func TestIndexedSelectionEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		base, ranks := randomFS(rng, 6, 300)
		reserved := vfs.NewReservedSet()
		reserved.Add("/scratch/u1/d3")
		reserved.Add("/scratch/u2/d0")
		var total int64 = base.TotalBytes()

		faultCfg := faults.Config{Seed: uint64(trial + 1), UnlinkFailProb: 0.2, ScanInterruptProb: 0.3}
		if trial%2 == 0 {
			faultCfg = faults.Config{} // faults off
		}
		injector := func() FaultInjector {
			if faultCfg.UnlinkFailProb == 0 {
				return nil
			}
			return faults.New(faultCfg)
		}

		t.Run(fmt.Sprintf("flt/trial%d", trial), func(t *testing.T) {
			run := func(walk bool) (*Report, *vfs.FS) {
				fs := base.Clone()
				f := &FLT{
					Lifetime:       timeutil.Days(90),
					Reserved:       reserved,
					CollectVictims: true,
					Faults:         injector(),
				}
				var reps []*Report
				// Two triggers: failed unlinks from the first must stay
				// candidates for the second.
				reps = append(reps, purgeWith(f, fs, ranks, tc, walk))
				reps = append(reps, purgeWith(f, fs, ranks, tc.Add(timeutil.Week), walk))
				reps[0].Victims = append(reps[0].Victims, reps[1].Victims...)
				reps[0].PurgedFiles += reps[1].PurgedFiles
				return reps[1], fs
			}
			ri, fsi := run(false)
			rw, fsw := run(true)
			diffReports(t, "flt", ri, rw)
			if !reflect.DeepEqual(fsi.Snapshot(tc), fsw.Snapshot(tc)) {
				t.Error("post-purge namespaces differ")
			}
		})

		t.Run(fmt.Sprintf("adr/trial%d", trial), func(t *testing.T) {
			run := func(walk bool) (*Report, *vfs.FS) {
				fs := base.Clone()
				adr, err := NewActiveDR(Config{
					Lifetime:          timeutil.Days(90),
					Capacity:          total,
					TargetUtilization: 0.5,
					MinLifetime:       timeutil.Week,
					Reserved:          reserved,
					CollectVictims:    true,
					Faults:            injector(),
				})
				if err != nil {
					t.Fatal(err)
				}
				rep := purgeWith(adr, fs, ranks, tc, walk)
				rep2 := purgeWith(adr, fs, ranks, tc.Add(timeutil.Week), walk)
				rep.Victims = append(rep.Victims, rep2.Victims...)
				rep.PurgedFiles += rep2.PurgedFiles
				return rep, fs
			}
			ri, fsi := run(false)
			rw, fsw := run(true)
			diffReports(t, "adr", ri, rw)
			if !reflect.DeepEqual(fsi.Snapshot(tc), fsw.Snapshot(tc)) {
				t.Error("post-purge namespaces differ")
			}
		})
	}
}

// TestOrderUsersDeterministic pins the satellite fix: equal-rank users
// (both ranks zero is the common case for inactive groups) must scan
// in ascending UserID order no matter how the input list is permuted.
func TestOrderUsersDeterministic(t *testing.T) {
	adr, err := NewActiveDR(Config{Lifetime: timeutil.Days(90)})
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]activeness.Rank, 10) // all both-inactive, all equal
	users := []trace.UserID{7, 3, 9, 0, 5, 1}
	perm := []trace.UserID{1, 9, 5, 7, 0, 3}
	for _, order := range []ScanOrder{ScanOrderGroups, ScanOrderMergedByOutcome} {
		adr.cfg.Order = order
		a := adr.orderUsers(users, ranks)
		b := adr.orderUsers(perm, ranks)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("order %v: scan sequence depends on input permutation:\n%v\n%v", order, a, b)
		}
		for _, phase := range a {
			for i := 1; i < len(phase); i++ {
				if phase[i-1].id >= phase[i].id {
					t.Errorf("order %v: equal-rank users not ascending by id: %v", order, phase)
				}
			}
		}
	}
}
