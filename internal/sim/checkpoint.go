package sim

// Checkpoint/resume for the replay emulator. A year-long replay over a
// production-scale trace can be killed at any point — node reboot,
// scheduler preemption, operator ctrl-C — so the emulator persists its
// full state at purge-trigger boundaries and reconstructs itself
// mid-year from the latest checkpoint.
//
// Layout under RunOptions.CheckpointDir (version 4):
//
//	LATEST            name of the newest complete checkpoint
//	t000042/          one checkpoint, written atomically (tmp + rename)
//	t000042.001/      a re-save at the same trigger count (checkpointName)
//	  state.json      cursor, trigger clock, result-so-far, fault state
//	  fs.bin          (full checkpoints) the whole vfs tree
//	  delta.bin       (delta checkpoints) upserts and removals since the base
//	  captured.bin    CaptureAt clone, when taken since the base
//	  snapshots/      SnapshotEvery series files new since the base (s%05d.bin)
//
// Every .bin file is a namespace file (nscodec.go): front-coded
// records in ascending path order between a header and a CRC-32C
// trailer. A full checkpoint's fs.bin is just a delta with no base and
// no removals, so one decoder reads all of them.
//
// With RunOptions.CheckpointFullEvery ≤ 1 every checkpoint is full
// (fs.bin holds the whole tree and sidecars are complete). With K > 1
// only every Kth checkpoint is full; the ones between carry a delta
// against their base (state.json's "base" field names the previous
// checkpoint), so checkpoint cost scales with the mutation rate
// instead of the tree size. That holds for state.json too: a delta
// stores only the reports after its base's and the days from its
// base's last, possibly still open, day on (ReportsFrom, DaysFrom),
// and the loader splices them along the chain. Loading a delta walks
// the base chain back to the nearest full checkpoint and replays the
// deltas forward. Pruning protects the base chain of every kept
// checkpoint; the run holds those chains in memory (every checkpoint
// it wrote, plus the chain it resumed from), so a save never re-reads
// an older state.json.
//
// Versions 2 and 3 stored the namespace files as gzip TSV through the
// trace.Snapshot codec (a delta's removals in a separate path list)
// and the whole history in every state.json. They still load; a run
// resumed from one writes a full version-4 checkpoint next, so no
// chain mixes the two formats.
//
// Checkpoints are taken right after a trigger's purge ran, so the
// serialized state is exactly the uninterrupted run's state at that
// boundary: a resumed run replays bit-for-bit (see
// TestCheckpointResumeDeterminism, TestDeltaCheckpointResume).

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/fsx"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

const (
	latestFile      = "LATEST"
	stateFile       = "state.json"
	fsFile          = "fs.bin"
	deltaFile       = "delta.bin"
	capturedFile    = "captured.bin"
	snapsSubdir     = "snapshots"
	keepCheckpoints = 2
	// maxDeltaChain caps how many delta links a loader will walk — a
	// cycle or runaway chain fails fast instead of spinning.
	maxDeltaChain = 1024

	kindFull  = "full"
	kindDelta = "delta"
)

// The namespace files of version 2 and 3 checkpoints: gzip TSV keyed
// by user name, a delta's removals as a path list of their own.
const (
	legacyFSFile       = "fs.tsv.gz"
	legacyDeltaFile    = "delta.tsv.gz"
	legacyDeletedFile  = "deleted.gz"
	legacyCapturedFile = "captured.tsv.gz"
)

// checkpointState is the JSON-serializable slice of runState plus the
// Result accumulated so far. The virtual file system, the CaptureAt
// clone, and the snapshot series travel as namespace files beside it;
// everything else fits in JSON.
type checkpointState struct {
	Version int    `json:"version"`
	Policy  string `json:"policy"`
	Config  string `json:"config"`
	// Kind is "full" or "delta"; empty (v2 checkpoints) means full.
	// Base names the previous checkpoint a delta diffs against.
	Kind        string `json:"kind,omitempty"`
	Base        string `json:"base,omitempty"`
	Ckpts       int    `json:"ckpts,omitempty"` // checkpoints written so far, keys the full/delta cadence
	At          int64  `json:"at"`              // trigger time of this checkpoint
	Cursor      int    `json:"cursor"`
	NextTrigger int64  `json:"next_trigger"`
	RanksAt     int64  `json:"ranks_at"`
	Captured    bool   `json:"captured"`
	LastSnap    int64  `json:"last_snap"`
	Triggers    int    `json:"triggers"`

	TotalAccesses int64                       `json:"total_accesses"`
	TotalMisses   int64                       `json:"total_misses"`
	RestoredFiles int64                       `json:"restored_files"`
	RestoredBytes int64                       `json:"restored_bytes"`
	MissesByGroup [activeness.NumGroups]int64 `json:"misses_by_group"`
	Days          []DayStats                  `json:"days"`
	Reports       []*retention.Report         `json:"reports"`
	// ReportsFrom and DaysFrom place Days and Reports in the run's
	// history (version 4). A full checkpoint holds all of it (both 0);
	// a delta holds the reports after its base's and the days from its
	// base's last, possibly still open, day on.
	ReportsFrom  int           `json:"reports_from,omitempty"`
	DaysFrom     int           `json:"days_from,omitempty"`
	HasCaptured  bool          `json:"has_captured"`
	NumSnapshots int           `json:"num_snapshots"`
	Faults       *faults.State `json:"faults,omitempty"`
	// Metrics is the observability registry's state at this boundary
	// (omitted when the run is uninstrumented). Resume restores it
	// bit-identically so counters continue where the original run
	// left off; per-phase wall-clock times are measurement metadata
	// and deliberately never checkpointed.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// checkpointVersion 2 added a selection-path field to the digest.
// Version 3 added the full/delta kind and base-chain fields; v2
// checkpoints are still accepted (they are exactly a v3 full
// checkpoint without the new fields). Version 4 moved the namespace
// files to the binary codec and made a delta's history append-only;
// v2 and v3 still load, any other version fails fast.
const checkpointVersion = 4

// digest fingerprints the knobs that shape the replay so a resume
// against a different configuration is rejected instead of silently
// diverging. Reserved is excluded (not serializable); supplying the
// same exemption list on resume is the caller's contract.
func (c Config) digest() string {
	return c.digestAt(checkpointVersion)
}

// digestV2 is the fingerprint format version-2 checkpoints carry —
// identical fields, older version stamp — kept so the reader can
// validate and accept them (version 3 ones carry digestAt(3)).
func (c Config) digestV2() string { return c.digestAt(2) }

// digestAt formats the fingerprint under a version stamp. The
// trailing "sel=false" is a fixed literal: every checkpoint on disk
// carries it from when the field recorded a selection-path option, so
// keeping it keeps those checkpoints resumable. TestDigestGolden pins
// the format.
func (c Config) digestAt(version int) string {
	return fmt.Sprintf("v%d life=%d period=%d trig=%d util=%g cap=%d retro=%d decay=%g capture=%d snap=%d logins=%t transfers=%t eq7=%t order=%d sel=false",
		version, c.Lifetime, c.PeriodLength, c.TriggerInterval,
		c.TargetUtilization, c.Capacity, c.RetroPasses, c.RetroDecay,
		c.CaptureAt, c.SnapshotEvery, c.UseLogins, c.UseTransfers,
		c.StrictEq7, c.Order)
}

// saveCheckpoint writes one complete checkpoint for the trigger that
// just fired at `at`, then atomically publishes it via LATEST and
// prunes old ones. Every file and the checkpoint directory itself are
// fsynced before the rename publishes them, so a crash at any point
// leaves either the previous or the new checkpoint intact, never a
// torn or zero-length one — the daemon prunes its WAL up to a
// checkpoint as soon as this returns.
func (s *Stream) saveCheckpoint(at timeutil.Time) error {
	e, st, dir := s.e, s.st, s.opts.CheckpointDir
	name := checkpointName(st.triggers, st.lastCkpt)
	tmp := filepath.Join(dir, name+".tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	// Decide full vs delta. A delta needs a previous version-4
	// checkpoint to diff against; checkpointName guarantees it is a
	// different directory even when this save re-saves its trigger
	// count.
	kind := kindFull
	if full := s.opts.CheckpointFullEvery; full > 1 && st.ckpts%full != 0 && st.lastCkpt != "" && !st.legacyBase {
		kind = kindDelta
	}
	// dataBytes tallies every file but state.json, which cannot count
	// itself: it carries the metrics snapshot this tally lands in.
	var dataBytes int64
	writeNS := func(path string, nk byte, taken timeutil.Time, count int, emit func(*nsWriter)) error {
		n, err := writeSynced(path, func(w io.Writer) error {
			nw := newNSWriter(w, s.nsBuf, &nsHeader{Kind: nk, Taken: taken, Count: count, Users: s.users.n, UserSum: s.users.sum})
			emit(nw)
			var err error
			s.nsBuf, err = nw.finish()
			return err
		})
		dataBytes += n
		return err
	}
	if kind == kindFull {
		if err := writeNS(filepath.Join(tmp, fsFile), nsKindFull, at, st.fsys.Count(), func(nw *nsWriter) { walkInto(nw, st.fsys) }); err != nil {
			return fmt.Errorf("sim: checkpoint fs: %w", err)
		}
	} else {
		dirty := st.fsys.AppendDirty(s.dirtyBuf[:0])
		err := writeNS(filepath.Join(tmp, deltaFile), nsKindDelta, at, len(dirty), func(nw *nsWriter) {
			for i := range dirty {
				if e := &dirty[i]; e.Live {
					nw.upsert(e.Path, e.Meta)
				} else {
					nw.remove(e.Path)
				}
			}
		})
		clear(dirty) // drop the removed paths' strings until the next delta
		s.dirtyBuf = dirty[:0]
		if err != nil {
			return fmt.Errorf("sim: checkpoint delta: %w", err)
		}
	}
	if c := st.res.Captured; c != nil && (kind == kindFull || !st.capturedSaved) {
		if err := writeNS(filepath.Join(tmp, capturedFile), nsKindFull, e.cfg.CaptureAt, c.Count(), func(nw *nsWriter) { walkInto(nw, c) }); err != nil {
			return fmt.Errorf("sim: checkpoint captured: %w", err)
		}
	}
	// Deltas carry only what is new since their base: series files,
	// reports, and the days from the base's last one on.
	snapsFrom, reportsFrom, daysFrom := 0, 0, 0
	if kind == kindDelta {
		snapsFrom, reportsFrom, daysFrom = st.snapsSaved, st.reportsSaved, max(st.daysSaved-1, 0)
	}
	if len(st.res.Snapshots) > snapsFrom {
		sd := filepath.Join(tmp, snapsSubdir)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return fmt.Errorf("sim: checkpoint: %w", err)
		}
		for i := snapsFrom; i < len(st.res.Snapshots); i++ {
			snap := st.res.Snapshots[i]
			if err := writeNS(filepath.Join(sd, seriesName(i)), nsKindFull, snap.Taken, len(snap.Entries), func(nw *nsWriter) { snapshotInto(nw, snap) }); err != nil {
				return fmt.Errorf("sim: checkpoint snapshot %d: %w", i, err)
			}
		}
		if err := fsx.SyncDir(sd); err != nil {
			return fmt.Errorf("sim: checkpoint: %w", err)
		}
	}
	// Counted before the snapshot is taken, like the checkpoint counter,
	// so the persisted metrics include the checkpoint that carries them.
	s.ro.noteCheckpoint(kind, dataBytes)
	cs := checkpointState{
		Version:       checkpointVersion,
		Policy:        s.policy.Name(),
		Config:        e.cfg.digest(),
		Kind:          kind,
		Ckpts:         st.ckpts + 1,
		At:            int64(at),
		Cursor:        st.cursor,
		NextTrigger:   int64(st.nextTrigger),
		RanksAt:       int64(st.ranksAt),
		Captured:      st.captured,
		LastSnap:      int64(st.lastSnap),
		Triggers:      st.triggers,
		TotalAccesses: st.res.TotalAccesses,
		TotalMisses:   st.res.TotalMisses,
		RestoredFiles: st.res.RestoredFiles,
		RestoredBytes: st.res.RestoredBytes,
		MissesByGroup: st.res.MissesByGroup,
		Days:          st.res.Days[daysFrom:],
		Reports:       st.res.Reports[reportsFrom:],
		ReportsFrom:   reportsFrom,
		DaysFrom:      daysFrom,
		HasCaptured:   st.res.Captured != nil,
		NumSnapshots:  len(st.res.Snapshots),
	}
	if kind == kindDelta {
		cs.Base = st.lastCkpt
	}
	if s.opts.Faults != nil {
		fs := s.opts.Faults.State()
		cs.Faults = &fs
	}
	if reg := s.opts.Obs.Registry(); reg != nil {
		snap := reg.Snapshot()
		cs.Metrics = &snap
	}
	// Compact JSON: readers never depended on the layout, and the
	// indented form cost a second pass and 1.6 times the bytes.
	blob, err := json.Marshal(&cs)
	if err != nil {
		return fmt.Errorf("sim: checkpoint state: %w", err)
	}
	if _, err := writeSynced(filepath.Join(tmp, stateFile), func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		return fmt.Errorf("sim: checkpoint state: %w", err)
	}
	if err := fsx.SyncDir(tmp); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	final := filepath.Join(dir, name)
	// A stale directory with this name can linger from a previous
	// incarnation killed before publishing LATEST. It is never the one
	// LATEST names: that is st.lastCkpt, which checkpointName avoids.
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	if err := fsx.RenameDurable(tmp, final); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	// LATEST is the durability linchpin: fsx.WriteFileAtomic fsyncs
	// the pointer file before the rename and the directory after it,
	// so a crash can never resurrect a stale pointer to a pruned
	// checkpoint (see TestLatestPointerDurability).
	if err := fsx.WriteFileAtomic(filepath.Join(dir, latestFile), []byte(name+"\n"), 0o644); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	st.ckpts++
	st.lastCkpt = name
	st.fsys.ResetDirty() // the next delta diffs against this checkpoint
	st.legacyBase = false
	st.snapsSaved = len(st.res.Snapshots)
	st.reportsSaved = len(st.res.Reports)
	st.daysSaved = len(st.res.Days)
	st.capturedSaved = st.res.Captured != nil
	if st.ckptBases == nil {
		st.ckptBases = make(map[string]string)
	}
	st.ckptBases[name] = cs.Base
	pruneCheckpoints(dir, keepCheckpoints, st.ckptBases)
	return nil
}

// checkpointName names the checkpoint a run saves after `triggers`
// purge triggers, given the newest one it published (or resumed
// from), last. The first save at a trigger count is t%06d. A re-save
// at the same count — the daemon's drain checkpoint on Close, which
// lands between triggers — takes the next revision, t%06d.%03d, so it
// never removes or rewrites the directory LATEST still names: a crash
// mid-save leaves that checkpoint whole.
func checkpointName(triggers int, last string) string {
	if last != "" {
		if trig, rev := parseCheckpointName(last); trig == triggers {
			return fmt.Sprintf("t%06d.%03d", triggers, rev+1)
		}
	}
	return fmt.Sprintf("t%06d", triggers)
}

// parseCheckpointName splits a checkpoint directory name into its
// trigger count and revision (0 for a first save).
func parseCheckpointName(name string) (triggers, rev int) {
	num, r, _ := strings.Cut(strings.TrimPrefix(name, "t"), ".")
	triggers, _ = strconv.Atoi(num)
	rev, _ = strconv.Atoi(r)
	return triggers, rev
}

// writeSynced creates path, lets fill write its content and fsyncs it
// before closing: the rename that publishes a checkpoint must never
// expose a file whose data is still only in the page cache. Returns
// the bytes on disk.
func writeSynced(path string, fill func(io.Writer) error) (n int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := fill(f); err != nil {
		return 0, err
	}
	if err := fsx.SyncFile(f); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// readPathList reads a version-3 delta's removals: a gzipped,
// newline-separated path list.
func readPathList(path string) (paths []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		paths = append(paths, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return paths, zr.Close()
}

// seriesName numbers checkpointed snapshot-series files; an index
// keeps same-day snapshots distinct, unlike the date-based public
// series naming. legacySeriesName is the version 2 and 3 name.
func seriesName(i int) string       { return fmt.Sprintf("s%05d.bin", i) }
func legacySeriesName(i int) string { return fmt.Sprintf("s%05d.tsv.gz", i) }

// pruneCheckpoints removes all but the newest keep checkpoint
// directories, never touching a checkpoint some kept checkpoint's
// delta chain still bases on. The chains come from bases — name to
// base, "" for a full checkpoint — which the run keeps in memory for
// every checkpoint it wrote or loaded, so pruning reads no state.json.
// Best-effort: a kept checkpoint the run never saw (its chain
// unknowable) skips the prune, and removal failures never fail the
// run.
func pruneCheckpoints(dir string, keep int, bases map[string]string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, ent := range entries {
		n := ent.Name()
		if ent.IsDir() && strings.HasPrefix(n, "t") && !strings.HasSuffix(n, ".tmp") {
			names = append(names, n)
		}
	}
	// Newest means highest (trigger count, revision); comparing the
	// parsed pair keeps that order past any field width.
	sort.Slice(names, func(i, j int) bool {
		ti, ri := parseCheckpointName(names[i])
		tj, rj := parseCheckpointName(names[j])
		if ti != tj {
			return ti < tj
		}
		return ri < rj
	})
	if len(names) <= keep {
		return
	}
	protected := make(map[string]bool)
	for _, n := range names[len(names)-keep:] {
		// Follow the base chain; each link is needed to reconstruct
		// the one above it.
		for cur := n; cur != "" && !protected[cur]; {
			base, known := bases[cur]
			if !known {
				return
			}
			protected[cur] = true
			cur = base
		}
	}
	for _, n := range names {
		if !protected[n] {
			os.RemoveAll(filepath.Join(dir, n))
			delete(bases, n)
		}
	}
}

// HasCheckpoint reports whether dir holds a complete checkpoint to
// resume from.
func HasCheckpoint(dir string) bool {
	name, err := readLatest(dir)
	if err != nil {
		return false
	}
	_, err = os.Stat(filepath.Join(dir, name, stateFile))
	return err == nil
}

func readLatest(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, latestFile))
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(b))
	if name == "" || strings.Contains(name, "/") {
		return "", fmt.Errorf("sim: corrupt %s in %s", latestFile, dir)
	}
	return name, nil
}

// readCheckpointState parses the state.json of checkpoint name under dir.
func readCheckpointState(dir, name string) (*checkpointState, error) {
	blob, err := os.ReadFile(filepath.Join(dir, name, stateFile))
	if err != nil {
		return nil, err
	}
	cs := new(checkpointState)
	if err := json.Unmarshal(blob, cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// loadCheckpoint reconstructs the runState recorded in the latest
// checkpoint under opts.CheckpointDir, validating that the policy and
// emulator configuration match the ones that wrote it.
func (e *Emulator) loadCheckpoint(policy retention.Policy, opts RunOptions) (*runState, error) {
	dir := opts.CheckpointDir
	name, err := readLatest(dir)
	if err != nil {
		return nil, fmt.Errorf("sim: no checkpoint in %s: %w", dir, err)
	}
	cs, err := readCheckpointState(dir, name)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
	}
	wantDigest := e.cfg.digest()
	switch cs.Version {
	case checkpointVersion:
	case 3:
		wantDigest = e.cfg.digestAt(3)
	case 2:
		// A v2 checkpoint is exactly a v3 full checkpoint without the
		// kind/base fields; accept it against the v2 digest format.
		wantDigest = e.cfg.digestV2()
		if cs.Kind != "" && cs.Kind != kindFull {
			return nil, fmt.Errorf("sim: checkpoint %s has version 2 but kind %q; refusing to guess its layout", name, cs.Kind)
		}
	default:
		return nil, fmt.Errorf("sim: checkpoint %s has version %d; this build reads versions 2 to %d — refusing to resume from an unknown format", name, cs.Version, checkpointVersion)
	}
	legacy := cs.Version != checkpointVersion
	if cs.Policy != policy.Name() {
		return nil, fmt.Errorf("sim: checkpoint %s was written by policy %q, resuming with %q", name, cs.Policy, policy.Name())
	}
	if cs.Config != wantDigest {
		return nil, fmt.Errorf("sim: checkpoint %s config mismatch:\n  have %s\n  want %s", name, wantDigest, cs.Config)
	}
	// At records the trigger this checkpoint was taken on; the next
	// trigger the resumed run waits for can never be earlier. A
	// violation means the state file was hand-edited or mixed from
	// two different runs, and resuming would replay events the
	// checkpoint already accounted for.
	if cs.At > cs.NextTrigger {
		return nil, fmt.Errorf("sim: checkpoint %s is internally inconsistent: taken at t=%d but next trigger t=%d is earlier", name, cs.At, cs.NextTrigger)
	}
	if cs.Faults != nil && opts.Faults == nil {
		return nil, fmt.Errorf("sim: checkpoint %s carries fault-injector state but no injector was provided", name)
	}

	// chain lists the checkpoints contributing state, newest first:
	// the loaded one, its base, ..., down to the nearest full one;
	// states holds their parsed state.json files in the same order.
	chain := []string{name}
	states := []*checkpointState{cs}
	for m := cs; m.Kind == kindDelta; {
		cur := m.Base
		if cur == "" {
			return nil, fmt.Errorf("sim: checkpoint %s: delta chain member without a base", name)
		}
		if len(chain) > maxDeltaChain {
			return nil, fmt.Errorf("sim: checkpoint %s: delta chain exceeds %d links", name, maxDeltaChain)
		}
		if m, err = readCheckpointState(dir, cur); err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: base %s: %w", name, cur, err)
		}
		if m.Version != checkpointVersion && m.Version != 3 && m.Version != 2 {
			return nil, fmt.Errorf("sim: checkpoint %s: base %s has version %d", name, cur, m.Version)
		}
		if (m.Version != checkpointVersion) != legacy {
			return nil, fmt.Errorf("sim: checkpoint %s (version %d): base %s has version %d; a chain never mixes formats", name, cs.Version, cur, m.Version)
		}
		chain = append(chain, cur)
		states = append(states, m)
	}
	// Rebuild the file system: the chain tail's full tree, then each
	// delta replayed oldest to newest.
	ns := newSidecarReader(e.ds.Users, legacy)
	full := chain[len(chain)-1]
	tree, err := ns.tree(filepath.Join(dir, full, ns.fsFile))
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", full, err)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		if err := ns.applyDelta(tree, filepath.Join(dir, chain[i])); err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: delta %s: %w", name, chain[i], err)
		}
	}
	// The history: legacy checkpoints repeat all of it in every
	// state.json; version 4 splices each member's part onto its base's.
	days, reports := cs.Days, cs.Reports
	if !legacy {
		days, reports = nil, nil
		for i := len(states) - 1; i >= 0; i-- {
			m := states[i]
			if m.ReportsFrom != len(reports) || m.DaysFrom != max(len(days)-1, 0) {
				return nil, fmt.Errorf("sim: checkpoint %s: %s continues the history at report %d, day %d, but its base holds %d reports, %d days",
					name, chain[i], m.ReportsFrom, m.DaysFrom, len(reports), len(days))
			}
			reports = append(reports[:m.ReportsFrom], m.Reports...)
			days = append(days[:m.DaysFrom], m.Days...)
		}
	}
	res := &Result{
		Policy:        cs.Policy,
		Days:          days,
		Reports:       reports,
		TotalAccesses: cs.TotalAccesses,
		TotalMisses:   cs.TotalMisses,
		RestoredFiles: cs.RestoredFiles,
		RestoredBytes: cs.RestoredBytes,
		MissesByGroup: cs.MissesByGroup,
	}
	// Sidecars (the CaptureAt clone and the snapshot series) live in
	// the newest chain member that wrote them: full checkpoints carry
	// everything, deltas only what appeared since their base.
	if cs.HasCaptured {
		cpath, err := findInChain(dir, chain, ns.capturedFile)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		if res.Captured, err = ns.tree(cpath); err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
	}
	for i := 0; i < cs.NumSnapshots; i++ {
		spath, err := findInChain(dir, chain, filepath.Join(snapsSubdir, ns.seriesName(i)))
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		s, err := ns.snapshot(spath)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		res.Snapshots = append(res.Snapshots, s)
	}
	if cs.Faults != nil {
		opts.Faults.Restore(*cs.Faults)
	}
	// Metrics restore is best-effort by design: resuming without an
	// observer (or with an events-only one) just drops the counter
	// state, since — unlike fault-injector state — it never shapes
	// the replay. A malformed snapshot still fails the load.
	if cs.Metrics != nil {
		if reg := opts.Obs.Registry(); reg != nil {
			if err := reg.Restore(*cs.Metrics); err != nil {
				return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
			}
		}
	}
	// cs.Ckpts is 0 for v2 checkpoints, which don't carry the cadence
	// counter; that makes the resumed run's next checkpoint full,
	// which is always safe. legacyBase does the same after any
	// pre-version-4 checkpoint: a delta cannot base on one.
	st := &runState{
		fsys:        tree,
		res:         res,
		cursor:      cs.Cursor,
		nextTrigger: timeutil.Time(cs.NextTrigger),
		ranksAt:     timeutil.Time(cs.RanksAt),
		captured:    cs.Captured,
		lastSnap:    timeutil.Time(cs.LastSnap),
		triggers:    cs.Triggers,
		cursors:     e.eval.NewCursors(),
		// Deltas written after this resume base on the checkpoint we
		// just loaded, with the sidecars and history it accounts for.
		ckpts:         cs.Ckpts,
		lastCkpt:      name,
		legacyBase:    legacy,
		snapsSaved:    cs.NumSnapshots,
		reportsSaved:  len(reports),
		daysSaved:     len(days),
		capturedSaved: cs.HasCaptured,
		ckptBases:     make(map[string]string, len(chain)),
	}
	// The chain just walked is what later prunes must protect; its
	// tail is full, every other member bases on the next one.
	for i, n := range chain {
		st.ckptBases[n] = ""
		if i+1 < len(chain) {
			st.ckptBases[n] = chain[i+1]
		}
	}
	st.ranker = func(at timeutil.Time) []activeness.Rank {
		return st.cursors.EvaluateAll(e.users, at)
	}
	// The rank table is not serialized: it is a pure function of the
	// (identically rebuilt) activeness evaluator and the evaluation
	// time recorded in the checkpoint. The fresh cursors fast-forward
	// to ranksAt here and advance with the resumed triggers.
	st.ranks = st.ranker(st.ranksAt)
	return st, nil
}

// sidecarReader reads one checkpoint format's namespace files: the
// binary codec of version 4, or the gzip TSV of versions 2 and 3.
type sidecarReader struct {
	legacy               bool
	fsFile, capturedFile string
	seriesName           func(i int) string
	users                userPrint               // version 4
	byName               map[string]trace.UserID // versions 2 and 3
}

func newSidecarReader(users []trace.User, legacy bool) *sidecarReader {
	if legacy {
		return &sidecarReader{legacy: true, fsFile: legacyFSFile, capturedFile: legacyCapturedFile,
			seriesName: legacySeriesName, byName: trace.NameIndex(users)}
	}
	return &sidecarReader{fsFile: fsFile, capturedFile: capturedFile,
		seriesName: seriesName, users: fingerprintUsers(users)}
}

// snapshot reads a whole-namespace file as a snapshot.
func (r *sidecarReader) snapshot(path string) (*trace.Snapshot, error) {
	if r.legacy {
		return trace.ReadSnapshotFile(path, r.byName)
	}
	return readNSSnapshot(path, r.users)
}

// tree reads a whole-namespace file into a file system.
func (r *sidecarReader) tree(path string) (*vfs.FS, error) {
	if r.legacy {
		snap, err := r.snapshot(path)
		if err != nil {
			return nil, err
		}
		return vfs.FromSnapshot(snap)
	}
	tree := vfs.New()
	_, err := readNS(path, r.users, nsKindFull, func(rec *nsRecord) error { return tree.Insert(rec.Path, rec.meta()) })
	return tree, err
}

// applyDelta replays the delta checkpoint in ckdir onto tree.
func (r *sidecarReader) applyDelta(tree *vfs.FS, ckdir string) error {
	if !r.legacy {
		_, err := readNS(filepath.Join(ckdir, deltaFile), r.users, nsKindDelta, func(rec *nsRecord) error {
			if rec.Op == nsOpDelete {
				tree.Remove(rec.Path)
				return nil
			}
			return tree.Insert(rec.Path, rec.meta())
		})
		return err
	}
	deleted, err := readPathList(filepath.Join(ckdir, legacyDeletedFile))
	if err != nil {
		return err
	}
	for _, p := range deleted {
		tree.Remove(p)
	}
	up, err := trace.ReadSnapshotFile(filepath.Join(ckdir, legacyDeltaFile), r.byName)
	if err != nil {
		return err
	}
	for i := range up.Entries {
		ue := &up.Entries[i]
		if err := tree.Insert(ue.Path, vfs.FileMeta{User: ue.User, Size: ue.Size, Stripes: ue.Stripes, ATime: ue.ATime}); err != nil {
			return err
		}
	}
	return nil
}

// findInChain locates rel in the newest chain member carrying it.
func findInChain(dir string, chain []string, rel string) (string, error) {
	for _, n := range chain {
		p := filepath.Join(dir, n, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("sidecar %s missing from chain %v", rel, chain)
}

// Resume continues an interrupted replay from the latest checkpoint
// under opts.CheckpointDir. The emulator must be built over the same
// dataset and configuration, and policy must match the interrupted
// run; the result is bit-for-bit identical to the uninterrupted run.
func (e *Emulator) Resume(policy retention.Policy, opts RunOptions) (*Result, error) {
	if opts.CheckpointDir == "" {
		return nil, errors.New("sim: Resume requires RunOptions.CheckpointDir")
	}
	st, err := e.loadCheckpoint(policy, opts)
	if err != nil {
		return nil, err
	}
	return e.replay(policy, opts, st)
}

// Resume is the package-level convenience: rebuild an Emulator from
// the dataset and configuration, then continue the interrupted run.
func Resume(ds *trace.Dataset, cfg Config, policy retention.Policy, opts RunOptions) (*Result, error) {
	e, err := New(ds, cfg)
	if err != nil {
		return nil, err
	}
	return e.Resume(policy, opts)
}
