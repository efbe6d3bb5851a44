package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// normalizeCheckpoint parses a checkpoint's state.json and blanks the
// one field allowed to differ between equivalent runs: wall clock
// inside the serialized reports.
func normalizeCheckpoint(t *testing.T, dir string) checkpointState {
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
	for _, rep := range cs.Reports {
		rep.Elapsed = 0
	}
	return cs
}

// readSidecar returns the raw bytes of the latest checkpoint's
// file-system snapshot sidecar.
func readSidecar(t *testing.T, dir string) []byte {
	t.Helper()
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, name, fsFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotSpacingSurvivesResume pins the interaction of three
// cadences that do not divide each other: purge triggers every 3 days,
// metadata snapshots every 10 days (so a snapshot lands on every 4th
// trigger, off the trigger grid), and checkpoints every 3rd trigger.
// A run killed at a non-checkpoint trigger resumes from an earlier
// checkpoint and re-replays triggers in between; the restored lastSnap
// must keep the snapshot series — count, capture times, and contents —
// bit-identical to the uninterrupted run's. A drifted spacing state
// would double-capture or skip a snapshot right after the resume
// boundary.
func TestSnapshotSpacingSurvivesResume(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{
		TargetUtilization: 0.5,
		TriggerInterval:   timeutil.Days(3),
		SnapshotEvery:     timeutil.Days(10),
	}
	newInjector := func() *faults.Injector {
		return faults.New(faults.Config{Seed: 9, UnlinkFailProb: 0.1, ScanInterruptProb: 0.1})
	}

	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(policyFor(t, em, "activedr"), RunOptions{Faults: newInjector()})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Snapshots) < 3 {
		t.Fatalf("fixture too small: only %d snapshots in the series", len(want.Snapshots))
	}
	for i := 1; i < len(want.Snapshots); i++ {
		if gap := want.Snapshots[i].Taken.Sub(want.Snapshots[i-1].Taken); gap < cfg.SnapshotEvery {
			t.Fatalf("snapshots %d and %d only %v apart, want >= %v", i-1, i, gap, cfg.SnapshotEvery)
		}
	}

	// stop=3 resumes exactly at a checkpoint; stop=4 and stop=5 resume
	// from trigger 3 and re-replay the triggers in between — including,
	// at stop=5, the snapshot-bearing trigger 4.
	for _, stopAt := range []int{3, 4, 5, 8} {
		dir := t.TempDir()
		em1, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := em1.RunWith(policyFor(t, em1, "activedr"), RunOptions{
			CheckpointDir: dir, CheckpointEvery: 3, Faults: newInjector(), StopAfterTriggers: stopAt,
		}); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("stop=%d: %v", stopAt, err)
		}
		em2, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := em2.Resume(policyFor(t, em2, "activedr"), RunOptions{
			CheckpointDir: dir, CheckpointEvery: 3, Faults: newInjector(),
		})
		if err != nil {
			t.Fatalf("stop=%d: resume: %v", stopAt, err)
		}
		requireSameResult(t, want, got)
	}
}

// walkSelection answers candidate selection the pre-index way: one
// namespace walk per purge pass buckets every path by owner, and each
// stale query re-filters its owner's bucket through Lookup and sorts.
// It is the twin of the retention package's test oracle (test files
// cannot be shared across packages) and the end-to-end baseline for
// the per-user atime index.
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
	sort.Slice(part, func(i, j int) bool {
		if part[i].Meta.ATime != part[j].Meta.ATime {
			return part[i].Meta.ATime < part[j].Meta.ATime
		}
		return part[i].Path < part[j].Path
	})
	return dst
}

// walkPolicy routes every purge pass of the wrapped policy through a
// fresh walkSelection, forwarding the fault injector and probe the
// replay threads through its policy.
type walkPolicy struct{ inner retention.Policy }

func (p walkPolicy) Name() string { return p.inner.Name() }

func (p walkPolicy) Purge(fsys vfs.Namespace, ranks []activeness.Rank, tc timeutil.Time) *retention.Report {
	return p.inner.Purge(newWalkSelection(fsys), ranks, tc)
}

func (p walkPolicy) SetFaults(fi retention.FaultInjector) {
	p.inner.(retention.FaultSink).SetFaults(fi)
}

func (p walkPolicy) SetProbe(pr *obs.PurgeProbe) {
	p.inner.(retention.ProbeSink).SetProbe(pr)
}

// TestIndexedReplayEquivalence is the end-to-end selection contract:
// a full-year replay on the incremental candidate index produces
// bit-identical Results (reports, day stats, totals, final state) and
// checkpoints to the same replay selecting through the walk oracle —
// for both policies, with and without fault injection.
func TestIndexedReplayEquivalence(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, Users: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, faultsOn := range []bool{false, true} {
		for _, name := range []string{"flt", "adr"} {
			t.Run(fmt.Sprintf("%s/faults=%t", name, faultsOn), func(t *testing.T) {
				run := func(walk bool) (*Result, string) {
					em, err := New(d, Config{TargetUtilization: 0.5})
					if err != nil {
						t.Fatal(err)
					}
					policy := policyFor(t, em, name)
					if walk {
						policy = walkPolicy{policy}
					}
					opts := RunOptions{CheckpointDir: t.TempDir(), CheckpointEvery: 20}
					if faultsOn {
						opts.Faults = faults.New(faults.Config{
							Seed: 42, UnlinkFailProb: 0.05, ScanInterruptProb: 0.05,
						})
					}
					res, err := em.RunWith(policy, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res, opts.CheckpointDir
				}
				indexed, idxDir := run(false)
				walked, walkDir := run(true)
				requireSameResult(t, walked, indexed)
				if !reflect.DeepEqual(normalizeCheckpoint(t, idxDir), normalizeCheckpoint(t, walkDir)) {
					t.Error("checkpoint states diverge between selection paths")
				}
				if !bytes.Equal(readSidecar(t, idxDir), readSidecar(t, walkDir)) {
					t.Error("checkpointed file-system snapshots are not byte-identical")
				}
			})
		}
	}
}
