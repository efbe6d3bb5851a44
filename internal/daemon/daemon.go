package daemon

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/wal"
)

// Named kill points the chaos harness can arm via faults.Config
// KillSpec on Config.WALFaults. Each models a process death at that
// exact instant; tests then rebuild the daemon over the same
// directories and assert it reconverges.
const (
	// KillWALSynced dies right after an ingest batch's fsync — events
	// durable in the WAL but their effects unacknowledged.
	KillWALSynced = "daemon.wal.synced"
	// KillRecoverRecord dies while recovery replays the WAL, after
	// the Nth record — a crash loop's worst case.
	KillRecoverRecord = "daemon.recover.record"
)

// checkpointFullEvery makes every 16th daemon checkpoint a full
// namespace dump and the ones between deltas against the previous
// checkpoint (sim.RunOptions.CheckpointFullEvery). At the paper's
// weekly trigger cadence a full dump at every trigger was about 60% of
// the daemon's ingest CPU, mostly gzip of the whole tree. Measured on
// the benchmark's ingest workload (500 users, 54 checkpoints a run,
// 2-vCPU Xeon VM, one session), CPU per acknowledged event at
// calibration speed was 10.2 us with every checkpoint full, 6.4 us at
// 4, 5.5 us at 16 and 5.3 us at 64. Past 16 the gain is within run
// noise, while a resume replays up to K-1 deltas and pruning keeps a
// whole chain, up to K+1 checkpoint directories, on disk; 16 bounds
// that to about four months of weekly triggers.
const checkpointFullEvery = 16

var (
	// ErrBackpressure reports a full ingest queue: the caller must
	// retry later (HTTP 429). Nothing was enqueued.
	ErrBackpressure = errors.New("daemon: ingest queue full")
	// ErrDegraded reports the daemon is in read-only mode after disk
	// pressure or repeated write failure; reads still work.
	ErrDegraded = errors.New("daemon: degraded read-only mode")
	// ErrClosed reports use after Close began.
	ErrClosed = errors.New("daemon: closed")
	// ErrKilled reports a simulated crash (chaos kill point or torn
	// write). The in-memory daemon is dead; the durable state on disk
	// is what the next incarnation recovers from.
	ErrKilled = errors.New("daemon: killed at chaos point")
)

// Config parameterizes a Daemon.
type Config struct {
	// WALDir holds the write-ahead log (required).
	WALDir string
	// CheckpointDir holds trigger-boundary state checkpoints in the
	// internal/sim layout (required; recovery = checkpoint + WAL tail).
	CheckpointDir string
	// Policy selects the retention policy: "activedr" (default) or
	// "flt".
	Policy string
	// Sim carries the retention parameters (lifetime, trigger
	// interval, target utilization, ...).
	Sim sim.Config
	// QueueDepth bounds the ingest queue in batches (default 64);
	// a full queue surfaces ErrBackpressure to the feeder.
	QueueDepth int
	// SyncEvery batches WAL fsyncs: at most this many events land
	// between syncs within one batch (default 256; every batch also
	// syncs at its end before acknowledging).
	SyncEvery int
	// CheckpointEvery spaces checkpoints to one every N purge
	// triggers (default 1).
	CheckpointEvery int
	// SegmentBytes is the WAL segment roll threshold (default
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
	// RetryAttempts bounds WAL-append retries on transient write
	// failure (default 5) before the daemon degrades.
	RetryAttempts int
	// RetryBase/RetryMax shape the jittered exponential backoff
	// between retries (defaults 10ms/1s).
	RetryBase, RetryMax time.Duration
	// BackoffSeed seeds the deterministic retry jitter.
	BackoffSeed uint64
	// Sleep is the retry wait function (default time.Sleep;
	// tests inject a recorder).
	Sleep func(time.Duration)
	// Faults injects replay-level faults (purge unlink failures, scan
	// interrupts, checkpoint kill points) into the policy via
	// internal/sim. Its state checkpoints and restores with the run.
	Faults *faults.Injector
	// WALFaults injects write-path faults (transient failures,
	// disk-full, torn writes, daemon kill points) into the WAL. Kept
	// separate from Faults so write-path draws never desynchronize
	// the replay-level stream — the property the daemon-vs-batch
	// equivalence tests depend on.
	WALFaults *faults.Injector
	// Obs attaches the observability layer; the registry also carries
	// the daemon's own queue/WAL/degraded metrics.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "activedr"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 256
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// state is the daemon's lifecycle position.
type state int32

const (
	stateRunning state = iota
	stateDegraded
	stateKilled
	stateClosed
)

func (s state) String() string {
	switch s {
	case stateRunning:
		return "running"
	case stateDegraded:
		return "degraded"
	case stateKilled:
		return "killed"
	default:
		return "closed"
	}
}

type batch struct {
	events []Event
	done   chan error
}

// Daemon is the retention service core. One applier goroutine owns
// all mutations; HTTP handlers read under the same mutex.
type Daemon struct {
	cfg         Config
	em          *sim.Emulator
	users       []trace.User
	byName      map[string]trace.UserID
	backoff     *faults.Backoff
	queue       chan batch
	applierDone chan struct{}

	ingestMu sync.RWMutex // guards queue against close-vs-send races
	closing  bool

	mu         sync.Mutex // guards everything below
	stream     *sim.Stream
	log        *wal.Log
	st         state
	reason     string        // why degraded/killed
	lastTS     timeutil.Time // newest event timestamp applied
	lastCkpt   int           // Applied() at the last checkpoint
	recovered  int           // events replayed from the WAL at startup
	walInfo    wal.RecoveryInfo
	recovering bool   // suppress WAL pruning while Replay iterates
	encBuf     []byte // applyBatch's event-encoding scratch; the WAL copies it
	walWrites  uint64 // log.Writes() already added to m.walWrites

	closeOnce sync.Once
	closeErr  error

	m daemonMetrics
}

// daemonMetrics caches the daemon's registry handles (nil-safe).
type daemonMetrics struct {
	ingested   *obs.Counter
	unlinks    *obs.Counter
	rejected   *obs.Counter
	walRecords *obs.Counter
	walSyncs   *obs.Counter
	walWrites  *obs.Counter
	retries    *obs.Counter
	queueLen   *obs.Gauge
	degraded   *obs.Gauge
	lastSeq    *obs.Gauge
}

func newDaemonMetrics(o *obs.Observer) daemonMetrics {
	reg := o.Registry()
	return daemonMetrics{
		ingested:   reg.Counter("daemon_events_ingested_total"),
		unlinks:    reg.Counter("daemon_events_unlinked_total"),
		rejected:   reg.Counter("daemon_events_rejected_total"),
		walRecords: reg.Counter("daemon_wal_records_total"),
		walSyncs:   reg.Counter("daemon_wal_syncs_total"),
		walWrites:  reg.Counter("daemon_wal_writes_total"),
		retries:    reg.Counter("daemon_wal_retries_total"),
		queueLen:   reg.Gauge("daemon_queue_depth"),
		degraded:   reg.Gauge("daemon_degraded"),
		lastSeq:    reg.Gauge("daemon_last_seq"),
	}
}

// New builds the daemon over a dataset (metadata snapshot + activity
// logs), recovers its state — latest durable checkpoint plus the WAL
// tail — and starts the applier. The returned daemon is ready to
// serve; a chaos kill point armed on Config.WALFaults can abort
// recovery with ErrKilled.
func New(ds *trace.Dataset, cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.WALDir == "" || cfg.CheckpointDir == "" {
		return nil, errors.New("daemon: WALDir and CheckpointDir are required")
	}
	em, err := sim.New(ds, cfg.Sim)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:         cfg,
		em:          em,
		users:       ds.Users,
		byName:      trace.NameIndex(ds.Users),
		backoff:     faults.NewBackoff(cfg.BackoffSeed, cfg.RetryBase, cfg.RetryMax),
		queue:       make(chan batch, cfg.QueueDepth),
		applierDone: make(chan struct{}),
		m:           newDaemonMetrics(cfg.Obs),
	}

	var policy retention.Policy
	switch cfg.Policy {
	case "flt":
		policy = em.NewFLT()
	case "activedr":
		if policy, err = em.NewActiveDR(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("daemon: unknown policy %q (want activedr or flt)", cfg.Policy)
	}

	opts := sim.RunOptions{
		CheckpointDir:       cfg.CheckpointDir,
		CheckpointEvery:     cfg.CheckpointEvery,
		CheckpointFullEvery: checkpointFullEvery,
		Faults:              cfg.Faults,
		Obs:                 cfg.Obs,
		OnCheckpoint:        d.onCheckpoint,
	}
	if sim.HasCheckpoint(cfg.CheckpointDir) {
		if d.stream, err = em.ResumeStream(policy, opts); err != nil {
			return nil, err
		}
	} else {
		d.stream = em.NewStream(policy, opts)
	}
	d.lastCkpt = d.stream.Applied()

	if err := d.recover(); err != nil {
		if d.log != nil {
			err = errors.Join(err, d.log.Close())
		}
		return nil, err
	}
	d.m.lastSeq.Set(int64(d.stream.Applied()))
	go d.applier()
	return d, nil
}

// recover opens the WAL, checks it joins the checkpoint without a
// gap, and replays every event past the checkpoint through the same
// Stream the live feed uses. Deterministic: killed and restarted at
// any record, the surviving state is always a prefix-consistent
// replay.
func (d *Daemon) recover() error {
	log, info, err := wal.Open(d.cfg.WALDir, wal.Options{
		SegmentBytes: d.cfg.SegmentBytes,
		Hooks:        walHooks(d.cfg.WALFaults),
	})
	if err != nil {
		return err
	}
	d.log = log
	d.walInfo = info

	applied := uint64(d.stream.Applied())
	if info.Records > 0 && info.FirstSeq > applied+1 {
		return fmt.Errorf("%w: checkpoint ends at event %d but the WAL starts at %d: events lost",
			wal.ErrCorrupt, applied, info.FirstSeq)
	}
	if info.LastSeq < applied {
		// The checkpoint covers events the WAL lost: a power loss cut
		// the log back past records the checkpoint had already
		// folded in. Every surviving record is covered, so the log
		// restarts after the checkpoint; appending at LastSeq+1 would
		// hand new events sequences recovery skips as applied.
		return log.Reset(applied + 1)
	}
	if info.LastSeq > applied {
		d.recovering = true
		defer func() { d.recovering = false }()
		err := log.Replay(applied, func(seq uint64, payload []byte) error {
			if d.cfg.WALFaults != nil && d.cfg.WALFaults.ShouldKill(KillRecoverRecord) {
				return fmt.Errorf("%w: during recovery at record %d", ErrKilled, seq)
			}
			ev, perr := ParseEvent(string(payload), d.byName)
			if perr != nil {
				return fmt.Errorf("%w: record %d: %v", wal.ErrCorrupt, seq, perr)
			}
			if aerr := d.apply(&ev); aerr != nil {
				return fmt.Errorf("daemon: recovery at record %d: %w", seq, aerr)
			}
			d.recovered++
			return nil
		})
		if err != nil {
			return err
		}
		// The replayed tail is durable again only once the next
		// checkpoint lands; until then the WAL stays the source of
		// truth, so prune only what the restored checkpoint covers.
	}
	if d.lastCkpt > 0 {
		if err := log.Prune(uint64(d.lastCkpt)); err != nil {
			return err
		}
	}
	return nil
}

// walHooks adapts a possibly-nil injector to the WAL's hook interface
// (a typed-nil *Injector must become a nil interface).
func walHooks(in *faults.Injector) wal.Hooks {
	if in == nil {
		return nil
	}
	return in
}

// onCheckpoint runs (with d.mu held, from the applier or recovery)
// after each checkpoint publishes: the WAL prefix the checkpoint
// covers is garbage.
func (d *Daemon) onCheckpoint(applied int) {
	d.lastCkpt = applied
	if d.recovering || d.log == nil {
		return
	}
	// Best-effort: a failed prune costs disk, not correctness.
	_ = d.log.Prune(uint64(applied))
}

// apply folds one event into the stream (caller holds d.mu or has
// exclusive access during recovery).
func (d *Daemon) apply(ev *Event) error {
	switch ev.Op {
	case OpUnlink:
		if _, err := d.stream.Unlink(ev.Path, ev.TS); err != nil {
			return err
		}
		d.m.unlinks.Inc()
	default:
		a := trace.Access{TS: ev.TS, User: ev.User, Create: ev.Op == OpCreate, Size: ev.Size, Path: ev.Path}
		if err := d.stream.Apply(&a); err != nil {
			return err
		}
	}
	d.lastTS = ev.TS
	return nil
}

// Applied returns how many events the daemon's state holds, recovered
// ones included: the feed position a feeder resumes from.
func (d *Daemon) Applied() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stream.Applied()
}

// Ingest appends events to the WAL and applies them, returning once
// the batch is durable (fsynced) and applied. A full queue returns
// ErrBackpressure immediately — explicit backpressure, never an
// unbounded buffer. Events must be time-ordered within and across
// batches (the feed is a log).
func (d *Daemon) Ingest(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	b := batch{events: events, done: make(chan error, 1)}
	d.ingestMu.RLock()
	if d.closing {
		d.ingestMu.RUnlock()
		return ErrClosed
	}
	select {
	case d.queue <- b:
		d.ingestMu.RUnlock()
	default:
		d.ingestMu.RUnlock()
		d.m.rejected.Add(int64(len(events)))
		return ErrBackpressure
	}
	d.m.queueLen.Set(int64(len(d.queue)))
	return <-b.done
}

// applier is the single goroutine that owns all mutations.
func (d *Daemon) applier() {
	defer close(d.applierDone)
	for b := range d.queue {
		d.m.queueLen.Set(int64(len(d.queue)))
		b.done <- d.applyBatch(b.events)
	}
}

// applyBatch runs one ingest batch: WAL append (with deterministic
// jittered-backoff retries) then apply, fsync batching within, one
// final fsync before the acknowledgment.
func (d *Daemon) applyBatch(events []Event) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.st {
	case stateDegraded:
		return fmt.Errorf("%w (%s)", ErrDegraded, d.reason)
	case stateKilled:
		return fmt.Errorf("%w (%s)", ErrKilled, d.reason)
	case stateClosed:
		return ErrClosed
	}
	sinceSync := 0
	for i := range events {
		ev := &events[i]
		payload, err := ev.AppendEncode(d.encBuf[:0], d.users)
		if err != nil {
			return err // nothing appended for this event; batch aborts
		}
		d.encBuf = payload
		var seq uint64
		attempt := 0
		err = faults.RetryBackoff(d.cfg.RetryAttempts, d.backoff, func(t time.Duration) {
			d.m.retries.Inc()
			d.cfg.Sleep(t)
		}, func() error {
			attempt++
			var aerr error
			seq, aerr = d.log.Append(payload)
			return aerr
		})
		if err != nil {
			switch {
			case errors.Is(err, wal.ErrTorn):
				d.die(stateKilled, fmt.Sprintf("torn write at event %d: %v", i, err))
				return fmt.Errorf("%w: %v", ErrKilled, err)
			case faults.IsDiskFull(err):
				d.die(stateDegraded, fmt.Sprintf("disk full: %v", err))
				return fmt.Errorf("%w: %v", ErrDegraded, err)
			default:
				d.die(stateDegraded, fmt.Sprintf("write failed after %d attempts: %v", attempt, err))
				return fmt.Errorf("%w: %v", ErrDegraded, err)
			}
		}
		d.m.walRecords.Inc()
		if ev.TS >= d.stream.NextTrigger() {
			// The event fires a purge trigger, which may publish a
			// checkpoint covering every event before it. The WAL
			// must hold those durably first, or a power loss could
			// leave the checkpoint ahead of the log.
			if err := d.syncLocked(); err != nil {
				return err
			}
			sinceSync = 0
		}
		if err := d.apply(ev); err != nil {
			if errors.Is(err, sim.ErrInterrupted) {
				// A replay-level kill point (checkpoint published)
				// fired: simulated process death.
				d.die(stateKilled, "kill point after checkpoint publish")
				return fmt.Errorf("%w: %v", ErrKilled, err)
			}
			// The event is already durable but unappliable — a feed
			// bug. Degrade loudly instead of diverging quietly.
			d.die(stateDegraded, fmt.Sprintf("apply event %d: %v", seq, err))
			return fmt.Errorf("%w: %v", ErrDegraded, err)
		}
		d.m.lastSeq.Set(int64(d.stream.Applied()))
		d.m.ingested.Inc()
		sinceSync++
		if sinceSync >= d.cfg.SyncEvery {
			if err := d.syncLocked(); err != nil {
				return err
			}
			sinceSync = 0
		}
	}
	if err := d.syncLocked(); err != nil {
		return err
	}
	if d.cfg.WALFaults != nil && d.cfg.WALFaults.ShouldKill(KillWALSynced) {
		d.die(stateKilled, "kill point after batch fsync")
		return ErrKilled
	}
	return nil
}

// syncLocked fsyncs the WAL (d.mu held), degrading on failure.
func (d *Daemon) syncLocked() error {
	if err := d.log.Sync(); err != nil {
		d.die(stateDegraded, fmt.Sprintf("wal fsync: %v", err))
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	d.m.walSyncs.Inc()
	w := d.log.Writes()
	d.m.walWrites.Add(int64(w - d.walWrites))
	d.walWrites = w
	return nil
}

// die moves the daemon to a terminal ingest state (reads stay up).
func (d *Daemon) die(s state, reason string) {
	d.st = s
	d.reason = reason
	d.m.degraded.Set(1)
}

// Close drains the ingest queue, takes a final checkpoint, and
// releases the WAL — the graceful SIGTERM path. Safe to call more
// than once.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		d.ingestMu.Lock()
		d.closing = true
		close(d.queue)
		d.ingestMu.Unlock()
		<-d.applierDone // queued batches drain through the applier

		d.mu.Lock()
		defer d.mu.Unlock()
		var errs []error
		switch d.st {
		case stateKilled:
			// A dead process loses what it had not written: records
			// still in the WAL's group-commit buffer never land.
			errs = append(errs, d.log.Abandon())
		case stateRunning:
			// Sync first: the drain checkpoint must not get ahead of
			// the WAL.
			if err := d.log.Sync(); err != nil {
				errs = append(errs, err)
			} else if d.cfg.CheckpointDir != "" && d.stream.Applied() > d.lastCkpt {
				at := d.lastTS
				if at == 0 {
					at = d.stream.NextTrigger() // stamp only; never read back
				}
				if err := d.stream.Checkpoint(at); err != nil {
					errs = append(errs, err)
				}
			}
			d.st = stateClosed
		}
		errs = append(errs, d.log.Close()) // a no-op after Abandon
		d.closeErr = errors.Join(errs...)
	})
	return d.closeErr
}
