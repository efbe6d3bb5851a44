package sim

// Multiplexed replay (DESIGN.md §13): evaluate up to 64 independent
// policy instances — a lifetime sweep, an ablation grid, facility
// presets — in ONE pass over the access stream. All lanes share the
// columnar day-batched feed (columnar.go), one vfs.LaneGroup (shared
// prefix tree + candidate index, per-lane divergence bitmasks) and,
// where their activity inputs coincide, one activeness cursor walk per
// trigger (EvaluateUserMulti ranks all registered period lengths off
// one cursor advance, so even a lifetime sweep with four distinct
// periods walks each user history once). Per-lane work shrinks to bit
// checks, counters and the policy's own purge decisions, which is
// where the ≥3× single-core speedup over N sequential replays comes
// from.
//
// Equivalence contract: every lane's Result — reports, day series,
// captured and final file systems, checkpoints on disk — is
// bit-identical to what a sequential Emulator.RunWith of the same
// (Config, Policy, RunOptions) would produce. The test suite proves
// this with and without fault injection (multiplex_test.go).

import (
	"errors"
	"fmt"
	"slices"

	"activedr/internal/activeness"
	"activedr/internal/profiling"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// PolicyFLT and PolicyActiveDR name the lane policies.
const (
	PolicyFLT      = "flt"
	PolicyActiveDR = "activedr"
)

// LaneSpec describes one policy lane of a multiplexed replay.
type LaneSpec struct {
	Config Config
	Policy string // PolicyFLT or PolicyActiveDR
	Opts   RunOptions
}

// evalKey identifies the activeness-evaluator inputs a sequential
// lane needs; lanes with equal keys share one Evaluator.
type evalKey struct {
	period    timeutil.Duration
	logins    bool
	transfers bool
}

// dataKey identifies the activity data an evaluator consumes,
// independent of the period length. Multiplexed lanes with equal data
// keys share one evaluator and one cursor walk per trigger even when
// their period lengths differ: the walk is over the histories, and
// the period only parameterizes the Φ bucketing on top of it.
type dataKey struct {
	logins    bool
	transfers bool
}

// Multiplexer caches the per-dataset artifacts multiplexed runs share:
// the base file system, the columnar feed per trigger interval, and
// the activeness evaluator per input signature. Build one per dataset
// and call Run once per lane set; runs are independent.
type Multiplexer struct {
	ds      *trace.Dataset
	base    *vfs.FS
	feeds   map[timeutil.Duration]*colFeed
	badFeed bool // set when the log is unusable columnar-ly
	evals   map[evalKey]*activeness.Evaluator
	// dataEvals caches evaluators per data signature for multiplexed
	// passes, which rank all period lengths through one evaluator
	// (EvaluateUserMulti ignores the embedded period).
	dataEvals map[dataKey]*activeness.Evaluator
}

// NewMultiplexer loads the dataset's snapshot and prepares the caches.
func NewMultiplexer(ds *trace.Dataset) (*Multiplexer, error) {
	base, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("sim: load snapshot: %w", err)
	}
	return NewMultiplexerWithBase(ds, base), nil
}

// NewMultiplexerWithBase prepares a multiplexer over a pre-built
// initial file system, the multiplexed counterpart of NewWithBase:
// snapfile-backed startup decodes the tree once and shares it across
// every lane. ds.Snapshot.Taken must carry the state's capture time;
// the snapshot's Entries slice is never consulted.
func NewMultiplexerWithBase(ds *trace.Dataset, base *vfs.FS) *Multiplexer {
	return &Multiplexer{
		ds:        ds,
		base:      base,
		feeds:     make(map[timeutil.Duration]*colFeed),
		evals:     make(map[evalKey]*activeness.Evaluator),
		dataEvals: make(map[dataKey]*activeness.Evaluator),
	}
}

func (m *Multiplexer) evaluator(cfg Config) *activeness.Evaluator {
	k := evalKey{cfg.PeriodLength, cfg.UseLogins, cfg.UseTransfers}
	if e, ok := m.evals[k]; ok {
		return e
	}
	e := newEvaluator(m.ds, cfg)
	m.evals[k] = e
	return e
}

// dataEvaluator returns the evaluator shared by every multiplexed
// lane with cfg's activity inputs. Its embedded period length is the
// first such lane's and must not be relied on: multiplexed ranking
// always passes periods explicitly.
func (m *Multiplexer) dataEvaluator(cfg Config) *activeness.Evaluator {
	k := dataKey{cfg.UseLogins, cfg.UseTransfers}
	if e, ok := m.dataEvals[k]; ok {
		return e
	}
	e := newEvaluator(m.ds, cfg)
	m.dataEvals[k] = e
	return e
}

func (m *Multiplexer) feed(interval timeutil.Duration) (*colFeed, bool) {
	if m.badFeed {
		return nil, false
	}
	if f, ok := m.feeds[interval]; ok {
		return f, true
	}
	f, ok := buildColFeed(m.ds, interval)
	if !ok {
		m.badFeed = true
		return nil, false
	}
	m.feeds[interval] = f
	return f, true
}

// sharedRanker memoizes rank tables per trigger time for all lanes
// sharing one activity-data signature. Lanes fire triggers in lockstep
// at the same monotone times, so the first lane's evaluation serves
// the rest: one cursor walk per (trigger, user) ranks every registered
// period length at once, and each lane reads the table for its own
// period index. groups additionally precomputes each table's per-user
// classification as a flat byte table, so the per-event hot path costs
// one indexed load instead of re-classifying a Rank per access.
type sharedRanker struct {
	cursors *activeness.Cursors
	users   int
	periods []timeutil.Duration // registered period lengths, deduplicated
	valid   bool
	at      timeutil.Time
	ranks   [][]activeness.Rank // [period index][user]
	groups  [][]uint8           // [period index][user] → activeness.Group
	scratch []activeness.Rank
}

// period registers a period length and returns its table index. All
// registrations happen before the first evaluation.
func (r *sharedRanker) period(d timeutil.Duration) int {
	for i, p := range r.periods {
		if p == d {
			return i
		}
	}
	r.periods = append(r.periods, d)
	return len(r.periods) - 1
}

// evalAll (re)computes the rank and group tables for every registered
// period at time at. The tables are allocated once and overwritten in
// place at each trigger: every consumer re-reads them at or after the
// trigger that computed them — runState re-fetches through the ranker
// closure each trigger, per-batch group reads always fetch the current
// table, and checkpoints persist only the evaluation time (ranks are
// recomputed on resume) — so no stale reference outlives an overwrite.
func (r *sharedRanker) evalAll(at timeutil.Time) {
	if r.valid && at == r.at {
		return
	}
	np := len(r.periods)
	if r.ranks == nil {
		r.scratch = make([]activeness.Rank, np)
		r.ranks = make([][]activeness.Rank, np)
		r.groups = make([][]uint8, np)
		for pi := range r.ranks {
			r.ranks[pi] = make([]activeness.Rank, r.users)
			r.groups[pi] = make([]uint8, r.users)
		}
	}
	for u := 0; u < r.users; u++ {
		r.cursors.EvaluateUserMulti(trace.UserID(u), at, r.periods, r.scratch)
		for pi, rk := range r.scratch {
			r.ranks[pi][u] = rk
			r.groups[pi][u] = uint8(rk.Group())
		}
	}
	r.at, r.valid = at, true
}

// laneRanker returns the runState ranker closure serving period index
// pi off the shared tables.
func (r *sharedRanker) laneRanker(pi int) func(timeutil.Time) []activeness.Rank {
	return func(at timeutil.Time) []activeness.Rank {
		r.evalAll(at)
		return r.ranks[pi]
	}
}

// groupAt reads a precomputed group table, defaulting users beyond the
// ranked population to the new-user classification — Rank{Op:1, Oc:1}
// with no recorded activity classifies BothInactive — exactly as
// rankGroup does on the Rank table.
func groupAt(gt []uint8, u trace.UserID) activeness.Group {
	if int(u) < len(gt) {
		return activeness.Group(gt[u])
	}
	return activeness.BothInactive
}

// mlane is one lane's live replay machinery.
type mlane struct {
	s        *Stream
	ranker   *sharedRanker
	pi       int       // the lane's period index into ranker's tables
	day      *DayStats // current batch's day bucket
	pendMiss []int32   // event indexes that missed in this batch
}

func (m *Multiplexer) lanePolicy(em *Emulator, name string) (retention.Policy, error) {
	switch name {
	case PolicyFLT:
		return em.NewFLT(), nil
	case PolicyActiveDR:
		return em.NewActiveDR()
	}
	return nil, fmt.Errorf("sim: unknown lane policy %q (want %q or %q)", name, PolicyFLT, PolicyActiveDR)
}

// RunMultiplexed evaluates all lanes in one pass over ds's access log.
// Results are returned in lane order. See Multiplexer for the cache
// reuse across repeated calls.
func RunMultiplexed(ds *trace.Dataset, lanes []LaneSpec) ([]*Result, error) {
	m, err := NewMultiplexer(ds)
	if err != nil {
		return nil, err
	}
	return m.Run(lanes)
}

// Run evaluates all lanes in one multiplexed pass. Every lane's
// Result is bit-identical to a sequential RunWith of the same spec.
func (m *Multiplexer) Run(lanes []LaneSpec) ([]*Result, error) {
	if len(lanes) == 0 {
		return nil, errors.New("sim: multiplexed run needs at least one lane")
	}
	if len(lanes) > 64 {
		return nil, fmt.Errorf("sim: %d lanes exceed the 64-lane group limit", len(lanes))
	}
	cfgs := make([]Config, len(lanes))
	ckptDirs := make(map[string]int, len(lanes))
	for i := range lanes {
		cfg := lanes[i].Config.Defaults()
		if cfg.TriggerInterval <= 0 || cfg.Lifetime <= 0 || cfg.PeriodLength <= 0 {
			return nil, fmt.Errorf("sim: lane %d: non-positive durations in config", i)
		}
		if cfg.Capacity == 0 {
			cfg.Capacity = m.base.TotalBytes()
		}
		if cfg.TriggerInterval != cfgs[0].TriggerInterval && i > 0 {
			return nil, fmt.Errorf("sim: lane %d trigger interval %v differs from lane 0's %v; multiplexed lanes share one trigger grid",
				i, cfg.TriggerInterval, cfgs[0].TriggerInterval)
		}
		if lanes[i].Opts.StopAfterTriggers > 0 {
			return nil, fmt.Errorf("sim: lane %d: StopAfterTriggers is not supported in multiplexed runs", i)
		}
		if d := lanes[i].Opts.CheckpointDir; d != "" {
			if j, dup := ckptDirs[d]; dup {
				return nil, fmt.Errorf("sim: lanes %d and %d share checkpoint dir %q", j, i, d)
			}
			ckptDirs[d] = i
		}
		cfgs[i] = cfg
	}
	feed, ok := m.feed(cfgs[0].TriggerInterval)
	if !ok {
		return m.runSequential(lanes, cfgs)
	}

	timer := profiling.StartTimer()
	group, err := vfs.NewLaneGroup(m.base, len(lanes), len(feed.paths))
	if err != nil {
		return nil, err
	}
	t0 := m.ds.Snapshot.Taken
	// First register every lane's period length with the ranker for its
	// data signature, so the t0 evaluation below already covers all
	// periods any sharing lane will read.
	rankers := make(map[dataKey]*sharedRanker)
	pis := make([]int, len(lanes))
	for i := range lanes {
		k := dataKey{cfgs[i].UseLogins, cfgs[i].UseTransfers}
		r := rankers[k]
		if r == nil {
			r = &sharedRanker{cursors: m.dataEvaluator(cfgs[i]).NewCursors(), users: len(m.ds.Users)}
			rankers[k] = r
		}
		pis[i] = r.period(cfgs[i].PeriodLength)
	}
	ml := make([]*mlane, len(lanes))
	for i := range lanes {
		em := &Emulator{ds: m.ds, cfg: cfgs[i], base: m.base, eval: m.dataEvaluator(cfgs[i]), users: len(m.ds.Users)}
		policy, err := m.lanePolicy(em, lanes[i].Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
		r := rankers[dataKey{cfgs[i].UseLogins, cfgs[i].UseTransfers}]
		ranker := r.laneRanker(pis[i])
		st := &runState{
			fsys:        group.Lane(i),
			res:         &Result{Policy: policy.Name()},
			nextTrigger: t0.Add(cfgs[i].TriggerInterval),
			ranks:       ranker(t0),
			ranksAt:     t0,
			captured:    cfgs[i].CaptureAt == 0,
			ranker:      ranker,
		}
		s := em.newStream(policy, lanes[i].Opts, st)
		if s.opts.Obs != nil {
			stopReplay := s.opts.Obs.StartPhase("replay")
			defer stopReplay()
		}
		ml[i] = &mlane{s: s, ranker: r, pi: pis[i]}
	}
	// Lanes sharing both a ranker and a period length see the same rank
	// table, so every event's group classification is computed once per
	// (ranker, period index) and fanned out.
	type rgKey struct {
		r  *sharedRanker
		pi int
	}
	rGroups := make([][]int, 0, len(lanes))
	rIndex := make(map[rgKey]int, len(lanes))
	for i := range ml {
		k := rgKey{ml[i].ranker, ml[i].pi}
		gi, ok := rIndex[k]
		if !ok {
			gi = len(rGroups)
			rIndex[k] = gi
			rGroups = append(rGroups, nil)
		}
		rGroups[gi] = append(rGroups[gi], i)
	}

	acc := m.ds.Accesses
	var missBuf []uint64
	var evs []vfs.RunEvent // per-run event scratch
	for bi := range feed.batches {
		b := &feed.batches[bi]
		for i, ln := range ml {
			if err := ln.s.fireTriggers(b.first); err != nil {
				return nil, fmt.Errorf("sim: lane %d: %w", i, err)
			}
			ln.day = ln.s.dayFor(b.first)
		}
		// Apply phase: compute every run's miss mask in the batch's path
		// order, then account in the batch's run order — pure sums until
		// the event-ordered miss flush below, so the split changes
		// nothing observable.
		if cap(missBuf) < len(b.runs) {
			missBuf = make([]uint64, len(b.runs))
		}
		missBuf = missBuf[:len(b.runs)]
		for ri := range b.runs {
			run := &b.runs[ri]
			seg := feed.order[run.off : run.off+run.n]
			evs = evs[:0]
			for _, idx := range seg {
				a := &acc[idx]
				evs = append(evs, vfs.RunEvent{User: a.User, Size: a.Size, TS: a.TS, Create: a.Create})
			}
			missBuf[ri] = group.ApplyRun(run.pid, feed.paths[run.pid], evs)
		}
		for ri := range b.runs {
			run := &b.runs[ri]
			seg := feed.order[run.off : run.off+run.n]
			miss := missBuf[ri]
			for _, rg := range rGroups {
				ln0 := ml[rg[0]]
				gt := ln0.ranker.groups[ln0.pi]
				for _, idx := range seg {
					g := groupAt(gt, acc[idx].User)
					for _, li := range rg {
						d := ml[li].day
						d.Accesses++
						d.ByGroup[g].Accesses++
					}
				}
				for _, li := range rg {
					ml[li].s.st.res.TotalAccesses += int64(len(seg))
					ml[li].s.ro.accesses.Add(int64(len(seg)))
				}
			}
			if miss != 0 {
				for li, ln := range ml {
					if miss&(uint64(1)<<uint(li)) != 0 {
						ln.pendMiss = append(ln.pendMiss, seg[0])
					}
				}
			}
		}
		for _, ln := range ml {
			// Runs apply path-sorted, so batch misses are re-sorted into
			// event order before recording: the miss event stream (and
			// its interleaving with trigger events, which only fire at
			// batch boundaries) matches a sequential replay's exactly.
			slices.Sort(ln.pendMiss)
			st, d := ln.s.st, ln.day
			gt := ln.ranker.groups[ln.pi]
			for _, idx := range ln.pendMiss {
				a := &acc[idx]
				g := groupAt(gt, a.User)
				d.Misses++
				d.ByGroup[g].Misses++
				st.res.TotalMisses++
				st.res.MissesByGroup[g]++
				st.res.RestoredFiles++
				st.res.RestoredBytes += a.Size
				ln.s.ro.noteMiss(st.res.Policy, a, g)
			}
			ln.pendMiss = ln.pendMiss[:0]
			ln.s.st.cursor = b.end
		}
	}
	out := make([]*Result, len(lanes))
	for i, ln := range ml {
		st := ln.s.st
		if !st.captured {
			st.res.Captured = st.fsys.CloneNS()
		}
		st.res.Final = st.fsys
		st.res.Elapsed = timer.Elapsed()
		out[i] = st.res
	}
	return out, nil
}

// runSequential is the fallback for access logs the columnar feed
// cannot represent (out-of-order timestamps, events predating the
// snapshot): N independent sequential replays, trivially equivalent —
// and surfacing the same errors a sequential run would.
func (m *Multiplexer) runSequential(lanes []LaneSpec, cfgs []Config) ([]*Result, error) {
	out := make([]*Result, len(lanes))
	for i := range lanes {
		em := &Emulator{ds: m.ds, cfg: cfgs[i], base: m.base, eval: m.evaluator(cfgs[i]), users: len(m.ds.Users)}
		policy, err := m.lanePolicy(em, lanes[i].Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
		res, err := em.RunWith(policy, lanes[i].Opts)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}
