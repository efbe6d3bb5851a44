package sim

// Stream is the incremental form of the replay loop: instead of
// consuming the dataset's access log in one call, the caller feeds
// one event at a time. The retention daemon (internal/daemon) drives
// a Stream from its write-ahead log, and the batch replay() drives
// one over ds.Accesses — the SAME code path, which is what makes the
// daemon's purge plans provably bit-identical to a batch replay of
// the same event sequence.

import (
	"errors"
	"fmt"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// Stream applies events to a live replay state. Not safe for
// concurrent use; the daemon serializes all access through its
// applier goroutine.
type Stream struct {
	e      *Emulator
	policy retention.Policy
	opts   RunOptions
	st     *runState
	ro     runObs
	day    *DayStats
	every  int // checkpoint cadence in triggers
	// users fingerprints the dataset's user table for the namespace
	// files checkpoints write; nsBuf is their reused encode buffer and
	// dirtyBuf the reused working set a delta encodes.
	users    userPrint
	nsBuf    []byte
	dirtyBuf []vfs.DirtyEntry
}

// newStream wires faults and observability into the state exactly as
// replay() always has, so batch and streamed runs stay equivalent.
func (e *Emulator) newStream(policy retention.Policy, opts RunOptions, st *runState) *Stream {
	if opts.Faults != nil {
		if sink, ok := policy.(retention.FaultSink); ok {
			sink.SetFaults(opts.Faults)
		}
	}
	ro := newRunObs(opts.Obs)
	if opts.Obs != nil {
		if sink, ok := policy.(retention.ProbeSink); ok {
			sink.SetProbe(opts.Obs.Probe())
		}
		st.fsys.SetProbe(opts.Obs.VFSProbe())
		if opts.Faults != nil {
			opts.Faults.SetMetrics(opts.Obs.FaultMetrics())
		}
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	if opts.CheckpointDir != "" && opts.CheckpointFullEvery > 1 {
		// Delta checkpoints diff against the previous checkpoint, so
		// the FS must record its mutation working set from the start.
		st.fsys.TrackDirty()
	}
	s := &Stream{e: e, policy: policy, opts: opts, st: st, ro: ro, every: every}
	if opts.CheckpointDir != "" {
		s.users = fingerprintUsers(e.ds.Users)
	}
	if n := len(st.res.Days); n > 0 {
		// Resume mid-day: keep appending to the tail day's stats.
		s.day = &st.res.Days[n-1]
	}
	return s
}

// NewStream starts a stream at the reference snapshot.
func (e *Emulator) NewStream(policy retention.Policy, opts RunOptions) *Stream {
	return e.newStream(policy, opts, e.freshState(policy))
}

// ResumeStream reconstructs a stream from the latest checkpoint under
// opts.CheckpointDir. Applied() reports how many events the restored
// state already contains; the caller replays everything after that.
func (e *Emulator) ResumeStream(policy retention.Policy, opts RunOptions) (*Stream, error) {
	if opts.CheckpointDir == "" {
		return nil, errors.New("sim: ResumeStream requires RunOptions.CheckpointDir")
	}
	st, err := e.loadCheckpoint(policy, opts)
	if err != nil {
		return nil, err
	}
	return e.newStream(policy, opts, st), nil
}

// Applied returns the number of events folded into the state so far.
// With a WAL whose first event holds sequence 1, this is exactly the
// last applied sequence number.
func (s *Stream) Applied() int { return s.st.cursor }

// Triggers returns how many purge triggers have fired.
func (s *Stream) Triggers() int { return s.st.triggers }

// NextTrigger returns when the next purge trigger fires.
func (s *Stream) NextTrigger() timeutil.Time { return s.st.nextTrigger }

// Ranks returns the current activeness rank table (read-only; indexed
// by user ID) and the trigger time it was evaluated at.
func (s *Stream) Ranks() ([]activeness.Rank, timeutil.Time) { return s.st.ranks, s.st.ranksAt }

// FS returns the live virtual file system: the replay's private tree,
// or a lane view of a multiplexed run's shared one. Callers must not
// mutate it and must not retain it across Apply calls.
func (s *Stream) FS() vfs.Namespace { return s.st.fsys }

// Policy returns the policy the stream purges with.
func (s *Stream) Policy() retention.Policy { return s.policy }

// Result returns the accumulating run result (live; Final and Elapsed
// are only set by the batch replay wrapper).
func (s *Stream) Result() *Result { return s.st.res }

// dayFor returns the per-day stats bucket for ts, starting a new day
// when the timestamp crosses midnight.
func (s *Stream) dayFor(ts timeutil.Time) *DayStats {
	d := ts.StartOfDay()
	if s.day == nil || s.day.Day != d {
		s.st.res.Days = append(s.st.res.Days, DayStats{Day: d})
		s.day = &s.st.res.Days[len(s.st.res.Days)-1]
	}
	return s.day
}

// trigger fires one purge trigger at its scheduled time.
func (s *Stream) trigger(at timeutil.Time) {
	e, st, res := s.e, s.st, s.st.res
	st.ranks = st.ranker(at)
	st.ranksAt = at
	if !st.captured && at >= e.cfg.CaptureAt {
		res.Captured = st.fsys.CloneNS()
		st.captured = true
	}
	seq := int64(st.triggers) + 1 // 1-based, stable across resumes
	s.opts.Obs.BeginTrigger(s.policy.Name(), seq)
	stopPurge := s.opts.Obs.StartPhase("purge")
	rep := s.policy.Purge(st.fsys, st.ranks, at)
	stopPurge()
	res.Reports = append(res.Reports, rep)
	s.ro.triggers.Inc()
	s.ro.noteTrigger(rep, seq)
	if e.cfg.SnapshotEvery > 0 && (st.lastSnap == 0 || at.Sub(st.lastSnap) >= e.cfg.SnapshotEvery) {
		stopSnap := s.opts.Obs.StartPhase("snapshot")
		res.Snapshots = append(res.Snapshots, st.fsys.Snapshot(at))
		stopSnap()
		st.lastSnap = at
		s.ro.snaps.Inc()
	}
	st.triggers++
}

// fireTriggers runs every purge trigger scheduled at or before ts,
// checkpointing on cadence and honoring kill points and trigger
// budgets. ErrInterrupted leaves the current event unapplied, exactly
// like the historical in-loop checks.
func (s *Stream) fireTriggers(ts timeutil.Time) error {
	st := s.st
	for ts >= st.nextTrigger {
		at := st.nextTrigger
		s.trigger(at)
		st.nextTrigger = at.Add(s.e.cfg.TriggerInterval)
		if s.opts.CheckpointDir != "" && st.triggers%s.every == 0 {
			if err := s.checkpoint(at); err != nil {
				return err
			}
			// Crash rehearsal: a configured kill point right after the
			// publish dies exactly where a real preemption would, with
			// the just-written checkpoint as the resume source.
			if s.opts.Faults != nil && s.opts.Faults.ShouldKill(faults.KillSimCheckpointPublished) {
				return ErrInterrupted
			}
		}
		if s.opts.StopAfterTriggers > 0 && st.triggers >= s.opts.StopAfterTriggers {
			return ErrInterrupted
		}
	}
	return nil
}

// Apply folds one access event into the state: due triggers fire
// first, then the access lands as a create, a hit, or a miss (which
// restores the file from the archive, as the paper's users do).
func (s *Stream) Apply(a *trace.Access) error {
	if a.TS < s.e.ds.Snapshot.Taken {
		return fmt.Errorf("sim: access at %v predates the snapshot (%v)", a.TS, s.e.ds.Snapshot.Taken)
	}
	if err := s.fireTriggers(a.TS); err != nil {
		return err
	}
	st, res := s.st, s.st.res
	ds := s.dayFor(a.TS)
	g := rankGroup(st.ranks, a.User)
	ds.Accesses++
	ds.ByGroup[g].Accesses++
	res.TotalAccesses++
	s.ro.accesses.Inc()
	switch {
	case a.Create:
		// Fresh output: insert, no miss possible.
		insert(st.fsys, a)
	case st.fsys.Touch(a.Path, a.TS):
		// Hit: access time renewed.
	default:
		// Miss: the retention policy purged a file the user came
		// back for; the user restores it from the archive.
		ds.Misses++
		ds.ByGroup[g].Misses++
		res.TotalMisses++
		res.MissesByGroup[g]++
		res.RestoredFiles++
		res.RestoredBytes += a.Size
		s.ro.noteMiss(res.Policy, a, g)
		insert(st.fsys, a)
	}
	st.cursor++
	return nil
}

// Unlink folds one deletion event into the state: due triggers fire
// first, then the path is removed (a user deleting their own file —
// no miss, no archive restore). Reports whether the path existed.
func (s *Stream) Unlink(path string, ts timeutil.Time) (bool, error) {
	if ts < s.e.ds.Snapshot.Taken {
		return false, fmt.Errorf("sim: unlink at %v predates the snapshot (%v)", ts, s.e.ds.Snapshot.Taken)
	}
	if err := s.fireTriggers(ts); err != nil {
		return false, err
	}
	_, ok := s.st.fsys.Remove(path)
	s.st.cursor++
	return ok, nil
}

// Checkpoint persists the state immediately, outside the trigger
// cadence — the daemon's graceful-drain path. `at` stamps the
// serialized file-system snapshot (the current event time).
func (s *Stream) Checkpoint(at timeutil.Time) error {
	if s.opts.CheckpointDir == "" {
		return errors.New("sim: Checkpoint requires RunOptions.CheckpointDir")
	}
	return s.checkpoint(at)
}

// checkpoint saves and publishes one checkpoint, timed as the
// "checkpoint" phase, then hands the covered event count to
// OnCheckpoint.
func (s *Stream) checkpoint(at timeutil.Time) error {
	// The counter increments before the save so the persisted
	// snapshot counts the checkpoint that carries it; resumed and
	// uninterrupted runs then agree on the final value.
	s.ro.ckpts.Inc()
	stopCkpt := s.opts.Obs.StartPhase("checkpoint")
	err := s.saveCheckpoint(at)
	stopCkpt()
	if err != nil {
		return err
	}
	if s.opts.OnCheckpoint != nil {
		s.opts.OnCheckpoint(s.st.cursor)
	}
	return nil
}
