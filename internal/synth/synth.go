// Package synth generates the synthetic OLCF-like dataset that stands
// in for the paper's proprietary Titan/Spider II traces (see
// DESIGN.md §4 for the substitution argument). The generator models a
// user population drawn from archetypes whose temporal activity
// patterns produce the phenomena the paper's evaluation rests on:
//
//   - power users whose job intensity ramps up, keeping Φ_op ≥ 1 and
//     who periodically deep-reuse files idle longer than the FLT
//     lifetime (the paper's undesired-file-miss scenario);
//   - operators with steady job streams and no outcomes;
//   - scholars whose publications make them outcome-active;
//   - intermittent users alternating bursts and long dormancy, coming
//     back to files FLT already purged;
//   - touchers who game FLT by periodically touching files they never
//     really use (§1, [26]);
//   - dormant users holding the bulk of the purge-fodder bytes.
//
// Every activity reduces to the paper's (timestamp, impact) pairs, so
// the policies under test observe the same structure they would on
// the real traces.
package synth

import (
	"fmt"
	"math"
	"sort"
	"time"

	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// Archetype labels a synthetic user behaviour class.
type Archetype int

const (
	Power Archetype = iota
	Operator
	Scholar
	Intermittent
	Toucher
	Dormant
	numArchetypes
)

// String names the archetype (also stored in the user trace).
func (a Archetype) String() string {
	switch a {
	case Power:
		return "power"
	case Operator:
		return "operator"
	case Scholar:
		return "scholar"
	case Intermittent:
		return "intermittent"
	case Toucher:
		return "toucher"
	case Dormant:
		return "dormant"
	default:
		return fmt.Sprintf("Archetype(%d)", int(a))
	}
}

// Config parameterizes the generator. The zero value plus Defaults()
// reproduces the scale used by the experiment harness.
type Config struct {
	Seed  uint64
	Users int
	// Mix holds archetype weights; they need not sum to 1.
	Mix [numArchetypes]float64
	// Start is the beginning of recorded history (job logs reach back
	// here, like the paper's 2013 scheduler logs).
	Start timeutil.Time
	// SnapshotAt is when the reference metadata snapshot is taken
	// (the paper: last weekly snapshot of 2015).
	SnapshotAt timeutil.Time
	// End closes the trace (the paper replays through 2016).
	End timeutil.Time
	// PreFilterLifetime drops snapshot files idle longer than this,
	// because the real Spider snapshot "is already a result of the
	// 90-day FLT data retention". Zero disables the filter.
	PreFilterLifetime timeutil.Duration
}

// Defaults fills unset fields with the reference scale.
func (c Config) Defaults() Config {
	if c.Seed == 0 {
		c.Seed = 0x5eed_ac71_7eda
	}
	if c.Users == 0 {
		c.Users = 2000
	}
	var zero [numArchetypes]float64
	if c.Mix == zero {
		c.Mix = [numArchetypes]float64{
			Power:        0.012,
			Operator:     0.035,
			Scholar:      0.05,
			Intermittent: 0.13,
			Toucher:      0.01,
			Dormant:      0.763,
		}
	}
	if c.Start == 0 {
		c.Start = timeutil.Date(2014, time.January, 1)
	}
	if c.SnapshotAt == 0 {
		c.SnapshotAt = timeutil.Date(2015, time.December, 26)
	}
	if c.End == 0 {
		c.End = timeutil.Date(2017, time.January, 1)
	}
	if c.PreFilterLifetime == 0 {
		c.PreFilterLifetime = timeutil.Days(90)
	}
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Users <= 0 {
		return fmt.Errorf("synth: non-positive user count %d", c.Users)
	}
	if !(c.Start < c.SnapshotAt && c.SnapshotAt < c.End) {
		return fmt.Errorf("synth: need Start < SnapshotAt < End, got %v / %v / %v",
			c.Start, c.SnapshotAt, c.End)
	}
	total := 0.0
	for _, w := range c.Mix {
		if w < 0 {
			return fmt.Errorf("synth: negative archetype weight")
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("synth: all archetype weights zero")
	}
	return nil
}

// fileRec tracks one synthetic file through generation.
type fileRec struct {
	path       string
	size       int64
	stripes    int
	created    timeutil.Time
	lastAccess timeutil.Time
	// atSnap is the access time as of SnapshotAt (what the metadata
	// snapshot records).
	atSnap timeutil.Time
}

// userState is the evolving generation state of one user.
type userState struct {
	id        trace.UserID
	archetype Archetype
	career    timeutil.Time // first activity
	files     []fileRec
	src       *randx.Source
	// burst state for intermittent users
	burstOn  bool
	burstEnd timeutil.Time
	idleEnd  timeutil.Time
	// scholars compute for a bounded phase, then publish
	scholarJobWeeks float64
	// dormant users check in on their data until they depart
	departure timeutil.Time
}

// stripe classes per the OLCF best-striping rule the paper cites:
// larger files carry more stripes; we invert the rule to synthesize a
// size from a stripe count.
var (
	stripeCounts = []int{1, 4, 8, 16}
	stripeSizeLo = []int64{4 << 20, 512 << 20, 4 << 30, 32 << 30}
	stripeSizeHi = []int64{512 << 20, 4 << 30, 32 << 30, 256 << 30}
	// Parked (archival) datasets skew to the wide-striped classes;
	// day-to-day job outputs skew small. The imbalance matters: the
	// reclaimable archival mass must dwarf the weekly output inflow,
	// as it does on a real scratch system.
	archivalWeights = []float64{0.50, 0.30, 0.15, 0.05}
	outputWeights   = []float64{0.85, 0.12, 0.025, 0.005}
)

// synthFile draws a stripe count and a log-uniform size within the
// stripe class.
func synthFile(src *randx.Source, w *randx.Weighted) (size int64, stripes int) {
	cls := w.Pick(src)
	lo, hi := float64(stripeSizeLo[cls]), float64(stripeSizeHi[cls])
	size = int64(math.Exp(math.Log(lo) + src.Float64()*(math.Log(hi)-math.Log(lo))))
	return size, stripeCounts[cls]
}

// Generate produces a full dataset.
func Generate(cfg Config) (*trace.Dataset, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := randx.New(cfg.Seed)
	archPick := randx.NewWeighted(cfg.Mix[:])
	stripePick := stripePickers{
		archival: randx.NewWeighted(archivalWeights),
		output:   randx.NewWeighted(outputWeights),
	}

	d := &trace.Dataset{}
	states := make([]*userState, cfg.Users)
	var academics []trace.UserID // publication-capable users

	for i := 0; i < cfg.Users; i++ {
		src := master.Split()
		arch := Archetype(archPick.Pick(src))
		st := &userState{
			id:        trace.UserID(i),
			archetype: arch,
			src:       src,
			career:    careerStart(src, arch, cfg),
		}
		states[i] = st
		d.Users = append(d.Users, trace.User{
			ID:        st.id,
			Name:      fmt.Sprintf("u%05d", i),
			Created:   st.career,
			Archetype: arch.String(),
		})
		if arch == Power || arch == Scholar {
			academics = append(academics, st.id)
		}
	}

	for _, st := range states {
		generateUser(st, cfg, stripePick, d)
	}
	generatePublications(states, academics, cfg, d)

	d.SortJobs()
	d.SortAccesses()
	sort.SliceStable(d.Logins, func(i, j int) bool { return d.Logins[i].TS < d.Logins[j].TS })
	sort.SliceStable(d.Transfers, func(i, j int) bool { return d.Transfers[i].TS < d.Transfers[j].TS })
	buildSnapshot(states, cfg, d)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid dataset: %w", err)
	}
	return d, nil
}

// careerStart staggers user onboarding. Power/operator careers spread
// across the whole history (some recent, whose short spans make them
// activeness-eligible); dormant users skew early; intermittent users
// anywhere.
func careerStart(src *randx.Source, arch Archetype, cfg Config) timeutil.Time {
	span := int64(cfg.End - cfg.Start)
	frac := src.Float64()
	switch arch {
	case Dormant, Toucher:
		frac *= 0.8 // mostly long-established
	case Power, Operator:
		// Bias toward later starts (ramping newcomers).
		frac = 1 - frac*frac
		frac *= 0.95
	}
	return cfg.Start.Add(timeutil.Duration(float64(span) * frac * 0.9))
}

// weeklyJobRate returns the expected jobs for the week starting at t,
// plus an impact growth factor applied to core-hours.
func weeklyJobRate(st *userState, t timeutil.Time, cfg Config) (rate, growth float64) {
	weeks := float64(t.Sub(st.career)) / float64(timeutil.Week)
	if weeks < 0 {
		return 0, 1
	}
	switch st.archetype {
	case Power:
		// Heavy and ramping: the activeness product rewards rising
		// recent impact. Growth is capped so core counts stay within a
		// Titan-scale machine.
		return 12, math.Min(math.Pow(1.06, weeks), 50)
	case Operator:
		return 7, math.Min(math.Pow(1.04, weeks), 30)
	case Scholar:
		// Compute-then-publish lifecycle: a bounded job phase, then
		// near silence while the results are written up. Scholars
		// whose publication cluster lands later are therefore
		// operation-inactive but outcome-active — the paper's
		// outcome-active-only quadrant.
		if weeks < st.scholarJobWeeks {
			return 1.5, 1
		}
		return 0.05, 1
	case Intermittent:
		if st.burstOn && t < st.burstEnd {
			return 8, 1
		}
		return 0, 1
	case Dormant:
		// A short burst of real work, then nothing: dormant users'
		// later presence is data check-ins (file accesses), not jobs.
		if weeks < 8 {
			return 2, 1
		}
		return 0, 1
	default: // Toucher: no jobs
		return 0, 1
	}
}

// advanceBurst flips intermittent users between bursts and dormancy.
func advanceBurst(st *userState, t timeutil.Time) {
	if st.archetype != Intermittent {
		return
	}
	if st.burstOn {
		if t >= st.burstEnd {
			st.burstOn = false
			// 8–22 weeks of silence: often (not always) long enough
			// to out-age the FLT lifetime.
			st.idleEnd = t.Add(timeutil.Duration(8+st.src.Intn(15)) * timeutil.Duration(timeutil.Week))
		}
	} else if t >= st.idleEnd {
		st.burstOn = true
		st.burstEnd = t.Add(timeutil.Duration(3+st.src.Intn(6)) * timeutil.Duration(timeutil.Week))
	}
}

// generateUser produces one user's jobs, file accesses and file pool.
func generateUser(st *userState, cfg Config, stripePick stripePickers, d *trace.Dataset) {
	src := st.src
	if st.archetype == Intermittent {
		st.burstOn = true
		st.burstEnd = st.career.Add(timeutil.Duration(3+src.Intn(6)) * timeutil.Duration(timeutil.Week))
	}
	if st.archetype == Scholar {
		st.scholarJobWeeks = float64(30 + src.Intn(50))
	}
	if st.archetype == Dormant {
		// Departure: the user keeps checking in on parked data for an
		// exponentially distributed stretch, then leaves the facility.
		// Users whose departure lands near the snapshot are exactly
		// the purge fodder the retention policies compete over.
		st.departure = st.career.Add(timeutil.Days(60) + timeutil.Duration(src.Exp(float64(timeutil.Days(300)))))
	}
	// Seed the pool: files created at career start.
	initial := initialFiles(src, st.archetype)
	for i := 0; i < initial; i++ {
		st.newFile(st.career.Add(timeutil.Duration(src.Intn(int(timeutil.Week)))), stripePick, cfg, d, false)
	}
	for week := st.career; week < cfg.End; week = week.Add(timeutil.Week) {
		advanceBurst(st, week)
		rate, growth := weeklyJobRate(st, week, cfg)
		// Shell logins accompany job activity (Table 2's second
		// operation type): roughly one session per couple of jobs.
		for l, nl := 0, src.Poisson(rate*0.6); l < nl; l++ {
			at := week.Add(timeutil.Duration(src.Int64n(int64(timeutil.Week))))
			if at < cfg.End {
				d.Logins = append(d.Logins, trace.Login{User: st.id, TS: at})
			}
		}
		n := src.Poisson(rate)
		for j := 0; j < n; j++ {
			submit := week.Add(timeutil.Duration(src.Int64n(int64(timeutil.Week))))
			if submit >= cfg.End {
				continue
			}
			job := trace.Job{
				User:     st.id,
				Submit:   submit,
				Duration: timeutil.Duration(src.LogNormal(math.Log(float64(2*timeutil.Hour)), 1.0)),
				Cores:    16 * (1 + int(float64(src.Intn(16))*growth)),
			}
			if job.Duration > timeutil.Days(7) {
				job.Duration = timeutil.Days(7)
			}
			d.Jobs = append(d.Jobs, job)
			st.jobAccesses(job, stripePick, cfg, d)
		}
	}
	if st.archetype == Toucher {
		st.generateTouches(cfg, d)
	}
	if st.archetype == Dormant {
		st.generateCheckins(cfg, d)
	}
	st.generateTransfers(cfg, d)
}

// generateTransfers emits data-transfer operations: intermittent
// users stage data in at each burst start and pull results out at the
// end; power users periodically ingest fresh campaign data.
func (st *userState) generateTransfers(cfg Config, d *trace.Dataset) {
	src := st.src
	emit := func(at timeutil.Time, dir trace.TransferDir, bytes int64) {
		if at >= cfg.Start && at < cfg.End {
			d.Transfers = append(d.Transfers, trace.Transfer{User: st.id, TS: at, Dir: dir, Bytes: bytes})
		}
	}
	switch st.archetype {
	case Intermittent:
		// One in/out pair per burst cycle, reconstructed from the
		// career; sizes in the tens-of-GB range.
		for t := st.career; t < cfg.End; t = t.Add(timeutil.Duration(13+src.Intn(20)) * timeutil.Duration(timeutil.Week)) {
			emit(t, trace.TransferIn, int64(1+src.Intn(64))<<30)
			emit(t.Add(timeutil.Duration(4+src.Intn(4))*timeutil.Duration(timeutil.Week)), trace.TransferOut, int64(1+src.Intn(16))<<30)
		}
	case Power:
		for t := st.career; t < cfg.End; t = t.Add(timeutil.Days(20 + src.Intn(30))) {
			emit(t, trace.TransferIn, int64(1+src.Intn(128))<<30)
		}
	}
}

func initialFiles(src *randx.Source, arch Archetype) int {
	switch arch {
	case Power:
		return 120 + src.Intn(120)
	case Operator:
		return 60 + src.Intn(80)
	case Scholar:
		return 30 + src.Intn(40)
	case Intermittent:
		return 40 + src.Intn(60)
	case Toucher:
		return 40 + src.Intn(80)
	default:
		return 20 + src.Intn(120)
	}
}

// stripePickers selects a size distribution per file role.
type stripePickers struct {
	archival *randx.Weighted // parked pools seeded at career start
	output   *randx.Weighted // files minted by replayed jobs
}

// newFile mints a file in the user's namespace, optionally recording
// a creation access (only replay-period events enter the access log).
// Initial-pool files (log=false) use the archival size distribution;
// job outputs use the small-skewed one.
func (st *userState) newFile(at timeutil.Time, stripePick stripePickers, cfg Config, d *trace.Dataset, log bool) *fileRec {
	w := stripePick.archival
	if log {
		w = stripePick.output
	}
	size, stripes := synthFile(st.src, w)
	proj := st.src.Intn(4)
	path := fmt.Sprintf("/lustre/atlas/u%05d/proj%d/run%04d/out%04d.dat",
		int(st.id), proj, len(st.files)/16, len(st.files))
	st.files = append(st.files, fileRec{
		path: path, size: size, stripes: stripes,
		created: at, lastAccess: at,
	})
	f := &st.files[len(st.files)-1]
	if at <= cfg.SnapshotAt {
		f.atSnap = at
	}
	if log && at >= cfg.SnapshotAt && at < cfg.End {
		d.Accesses = append(d.Accesses, trace.Access{
			TS: at, User: st.id, Create: true, Size: size, Path: path,
		})
	}
	return f
}

// touchFile records a (re-)access of an existing file.
func (st *userState) touchFile(f *fileRec, at timeutil.Time, cfg Config, d *trace.Dataset) {
	f.lastAccess = at
	if at <= cfg.SnapshotAt {
		f.atSnap = at
	}
	if at >= cfg.SnapshotAt && at < cfg.End {
		d.Accesses = append(d.Accesses, trace.Access{
			TS: at, User: st.id, Create: false, Size: f.size, Path: f.path,
		})
	}
}

// jobAccesses emits the file working set of one job: a mix of fresh
// creations, recent-file reuse, and occasional deep reuse of files
// idle for a long time — the access-gap phenomenon behind FLT's
// undesired misses.
func (st *userState) jobAccesses(job trace.Job, stripePick stripePickers, cfg Config, d *trace.Dataset) {
	src := st.src
	k := 2 + src.Intn(8)
	deepP := 0.01
	switch st.archetype {
	case Power:
		deepP = 0.04
	case Intermittent:
		deepP = 0.07 // returning users reach for pre-gap files
	}
	for i := 0; i < k; i++ {
		at := job.Submit.Add(timeutil.Duration(src.Int64n(int64(job.Duration) + 1)))
		switch {
		case len(st.files) == 0 || (src.Bool(0.08) && len(st.files) < 4000):
			st.newFile(at, stripePick, cfg, d, true)
		case src.Bool(deepP):
			// Deep reuse: an old file, possibly idle beyond the FLT
			// lifetime. The target must have been alive at replay
			// start (in the snapshot, or created during the replay):
			// a file the facility purged before the snapshot would
			// miss under every policy and carries no signal.
			f := st.pickDeepTarget(cfg, at)
			if f == nil {
				continue
			}
			st.touchFile(f, at, cfg, d)
		default:
			// Recency-biased reuse of the newest ~32 files.
			w := 32
			if w > len(st.files) {
				w = len(st.files)
			}
			f := &st.files[len(st.files)-1-src.Intn(w)]
			st.touchFile(f, at, cfg, d)
		}
	}
}

// generateCheckins renews dormant users' parked-data access times —
// every 30–60 days the user reads a slice of their files until they
// depart the facility. Check-ins run only up to the snapshot: the
// replayed application log, like the paper's, is derived from job
// command lines, so a user without jobs contributes no replay
// accesses. Their freshly-parked bytes are exactly the mass a purge
// policy can reclaim without causing a single miss.
func (st *userState) generateCheckins(cfg Config, d *trace.Dataset) {
	src := st.src
	stop := st.departure
	if cfg.SnapshotAt < stop {
		stop = cfg.SnapshotAt
	}
	for t := st.career.Add(timeutil.Days(20)); t < stop; t = t.Add(timeutil.Days(30 + src.Intn(31))) {
		for i := range st.files {
			if src.Bool(0.7) {
				st.touchFile(&st.files[i], t.Add(timeutil.Duration(src.Intn(int(timeutil.Hour)))), cfg, d)
			}
		}
	}
}

// pickDeepTarget samples an old file that is (or was) actually
// reachable in the replayed file system: either it survived the
// facility's pre-snapshot retention, or it was created after the
// snapshot. Returns nil when no such file turns up.
func (st *userState) pickDeepTarget(cfg Config, at timeutil.Time) *fileRec {
	for try := 0; try < 8; try++ {
		f := &st.files[st.src.Intn(len(st.files))]
		// Power users revisit recent campaigns (idle up to about a
		// year), not the deep archive; this is the band an extended
		// activeness lifetime can actually save.
		if st.archetype == Power && at.Sub(f.lastAccess) > timeutil.Days(330) {
			continue
		}
		if f.created > cfg.SnapshotAt {
			return f
		}
		if f.atSnap != 0 && cfg.SnapshotAt.Sub(f.atSnap) <= cfg.PreFilterLifetime {
			return f
		}
	}
	return nil
}

// generateTouches implements the periodic-touch trick: every ~30 days
// the user touches a swath of files without any job activity.
func (st *userState) generateTouches(cfg Config, d *trace.Dataset) {
	src := st.src
	for t := st.career.Add(timeutil.Days(30)); t < cfg.End; t = t.Add(timeutil.Days(25 + src.Intn(10))) {
		for i := range st.files {
			if src.Bool(0.9) {
				st.touchFile(&st.files[i], t.Add(timeutil.Duration(src.Intn(int(timeutil.Hour)))), cfg, d)
			}
		}
	}
}

// generatePublications emits outcome activities for academics.
//
// The activeness product Φ_λ = Π b_e^e zeroes on any empty period, so
// a user can only be outcome-active when their *entire* publication
// history is temporally compact and recent — exactly the regime of
// the real OLCF list (1,151 publications across 13,813 users: most
// publishing users hold one small cluster of papers). We therefore
// generate per-user publication *clusters*: 1–3 papers within a
// ~60-day window. Power users' clusters are biased into the replay
// year (their current campaign is producing results), scholars'
// clusters spread across the history with a moderate recency bias. A
// few scholars are long-running regular publishers; they are
// realistic but, faithfully to the model, almost never rank as
// outcome-active.
func generatePublications(states []*userState, academics []trace.UserID, cfg Config, d *trace.Dataset) {
	if len(academics) == 0 {
		return
	}
	span := int64(cfg.End - cfg.Start)
	for _, st := range states {
		if st.archetype != Power && st.archetype != Scholar {
			continue
		}
		src := st.src
		cites := randx.NewZipf(src, 1.3, 200)
		emit := func(at timeutil.Time) {
			if at >= cfg.End || at < cfg.Start {
				return
			}
			// 50% single-author; co-authors pull scattered activities
			// into other academics' histories, which is realistic
			// noise the model must tolerate.
			n := 1
			switch {
			case src.Bool(0.5):
				n = 1
			case src.Bool(0.6):
				n = 2
			default:
				n = 3
			}
			// A dataset with fewer academics than the draw asks for
			// cannot fill the author list with distinct co-authors.
			// Capping after the draws keeps every other dataset's
			// random stream, and output, unchanged.
			n = min(n, len(academics))
			authors := []trace.UserID{st.id}
			for len(authors) < n {
				co := academics[src.Intn(len(academics))]
				dup := false
				for _, a := range authors {
					if a == co {
						dup = true
						break
					}
				}
				if !dup {
					authors = append(authors, co)
				}
			}
			if src.Bool(0.3) && len(authors) > 1 {
				i := 1 + src.Intn(len(authors)-1)
				authors[0], authors[i] = authors[i], authors[0]
			}
			d.Publications = append(d.Publications, trace.Publication{
				TS:        at,
				Citations: int(cites.Next()) - 1,
				Authors:   authors,
			})
		}
		cluster := func(center timeutil.Time) {
			n := 1 + src.Intn(3)
			for i := 0; i < n; i++ {
				emit(center.Add(timeutil.Duration(src.Intn(int(timeutil.Days(60))) - int(timeutil.Days(30)))))
			}
		}
		replaySpan := int64(cfg.End - cfg.SnapshotAt)
		switch {
		case st.archetype == Power:
			// Current campaign: the cluster lands inside the replay
			// year, so at some purge triggers the user is both-active.
			center := cfg.SnapshotAt.Add(timeutil.Duration(src.Int64n(replaySpan)))
			if center < st.career {
				center = st.career.Add(timeutil.Days(30))
			}
			cluster(center)
		case src.Bool(0.2):
			// Long-running regular publisher (rarely outcome-active
			// under the product model — by design).
			for t := st.career.Add(timeutil.Days(40)); t < cfg.End; t = t.Add(timeutil.Days(70 + src.Intn(50))) {
				emit(t)
			}
		case src.Bool(0.65):
			// Publishing scholar of the current cycle: cluster within
			// the replay year, typically after the job phase ended.
			center := cfg.SnapshotAt.Add(timeutil.Duration(src.Int64n(replaySpan)))
			if center < st.career {
				center = st.career.Add(timeutil.Days(30))
			}
			cluster(center)
		default:
			// One compact cluster with recency bias (sqrt skews the
			// center toward the end of the trace).
			frac := math.Sqrt(src.Float64())
			center := cfg.Start.Add(timeutil.Duration(float64(span) * frac))
			if center < st.career {
				center = st.career.Add(timeutil.Days(30))
			}
			cluster(center)
		}
	}
	sort.SliceStable(d.Publications, func(i, j int) bool {
		return d.Publications[i].TS < d.Publications[j].TS
	})
}

// buildSnapshot captures the reference metadata snapshot at
// cfg.SnapshotAt, optionally pre-filtered by the facility's FLT
// retention as the real Spider snapshots were.
func buildSnapshot(states []*userState, cfg Config, d *trace.Dataset) {
	var entries []trace.SnapshotEntry
	for _, st := range states {
		for i := range st.files {
			f := &st.files[i]
			if f.created > cfg.SnapshotAt || f.atSnap == 0 {
				continue
			}
			if cfg.PreFilterLifetime > 0 && cfg.SnapshotAt.Sub(f.atSnap) > cfg.PreFilterLifetime {
				continue // already purged by the facility's FLT
			}
			entries = append(entries, trace.SnapshotEntry{
				Path:    f.path,
				User:    st.id,
				Size:    f.size,
				Stripes: f.stripes,
				ATime:   f.atSnap,
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	d.Snapshot = trace.Snapshot{Taken: cfg.SnapshotAt, Entries: entries}
}
