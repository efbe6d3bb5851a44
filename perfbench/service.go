package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"activedr/internal/daemon"
	"activedr/internal/obs"
	"activedr/internal/sim"
	"activedr/internal/trace"
	"activedr/internal/wal"
)

// batchEvents is activedrd's -feed-batch default: events per Ingest.
const batchEvents = 256

// readRate is the serve workload's open-loop read rate per second. It
// is the lowest power of two at which a 25 s run that read while it
// fed, traced or not, reported read_p90_ms from at least ten reads
// beyond it, that is from 100 reads or more: 8/s gave some 150 reads,
// where 4/s gave 55 in a 20 s run and fell back to p75. Idle on a 2-vCPU host the routes took about 5 (ranks), 27
// (plan), 31 (victims) and 0.3 (status) ms, 16 ms a read on average,
// so the reader keeps about an eighth of one core busy. A faster
// reader distorts the feed it reads beside: on one seed, serve spent
// 16-18 us of CPU per event with no reads, 17 at 8/s and 23 at 16/s,
// where reads held the daemon lock long enough to slow the feed.
const readRate = 8

// readsPerRep is how many reads each serve repetition sends on that
// schedule: six cycles of the four routes, 2.9 s of reads, about as
// long as a repetition's feed on a quiet 2-vCPU host. A fixed count
// rather than "until the feed ends" keeps the read work per event the
// same when the host slows the feed down; otherwise a slow host would
// add reads, and CPU, to every event.
var readsPerRep = 6 * len(readRoutes)

// planStride picks the user each /v1/plan read asks about: a prime
// stride visits every user in a fixed order that does not follow the
// dataset's user numbering, so plan's per-user cost is sampled across
// light and heavy users alike.
const planStride = 7919

// readRoutes are the read endpoints serve cycles through, in order.
var readRoutes = []string{"ranks", "plan", "victims", "status"}

type readSample struct {
	route int
	ms    float64
	ok    bool
}

// daemonState is what the daemon-vs-batch check compares.
type daemonState struct {
	Files    int   `json:"files"`
	Bytes    int64 `json:"bytes"`
	Triggers int   `json:"triggers"`
	Applied  int   `json:"applied_events"`
	Misses   int64 `json:"-"`
}

func (s daemonState) String() string {
	return fmt.Sprintf("files=%d bytes=%d triggers=%d applied=%d misses=%d", s.Files, s.Bytes, s.Triggers, s.Applied, s.Misses)
}

// liveDaemon is one repetition's daemon with what its checks read.
type liveDaemon struct {
	ds  *trace.Dataset
	d   *daemon.Daemon
	o   *obs.Observer
	reg *obs.Registry
	dir string // WAL and checkpoint directories, removed by close
	evs []daemon.Event
}

// startDaemon loads the dataset and builds a daemon on activedrd's
// defaults (observer attached, SyncEvery 256, a checkpoint at every
// trigger) over fresh WAL and checkpoint directories.
func startDaemon(b *bench, r *rep) (*liveDaemon, error) {
	ds, err := r.load(b.dataDir)
	if err != nil {
		return nil, err
	}
	if r.traced {
		// The daemon builds its namespace and activeness index inside
		// daemon.New; probe both layers on the side, off the traced wall.
		start := time.Now()
		base, err := r.build(ds, false)
		if err != nil {
			return nil, err
		}
		mid := time.Now()
		if _, err := sim.NewWithBase(ds, base, paperConfig(90)); err != nil {
			return nil, err
		}
		r.layers["activeness.index_s"] = time.Since(mid).Seconds()
		r.offWall += time.Since(start)
	}
	dir, err := os.MkdirTemp(b.runDir, "daemon-")
	if err != nil {
		return nil, err
	}
	o, reg := newObserver()
	start := time.Now()
	d, err := daemon.New(ds, daemon.Config{
		WALDir:        filepath.Join(dir, "wal"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		Policy:        b.policy,
		Sim:           paperConfig(90),
		Obs:           o,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r.top("daemon.new_s", start)
	return &liveDaemon{ds: ds, d: d, o: o, reg: reg, dir: dir}, nil
}

// feed prepares the dataset's access log as daemon events, the feed
// activedrd -feed @accesses replays.
func (ld *liveDaemon) feed() []daemon.Event {
	ld.evs = make([]daemon.Event, len(ld.ds.Accesses))
	for i := range ld.ds.Accesses {
		ld.evs[i] = daemon.AccessEvent(&ld.ds.Accesses[i])
	}
	return ld.evs
}

// ingest times one acknowledged batch, noting whether it fired a
// purge trigger.
func (ld *liveDaemon) ingest(r *rep, n int, send func() error) error {
	trig := ld.reg.Counter(obs.MetricTriggers)
	before := trig.Value()
	start := time.Now()
	err := send()
	r.acks = append(r.acks, ms(time.Since(start)))
	r.ackTrig = append(r.ackTrig, trig.Value() != before)
	r.attempted += int64(n)
	if err != nil {
		r.failed += int64(n)
		return err
	}
	r.events += int64(n)
	return nil
}

// close reads the daemon's final state, closes it (drain plus final
// checkpoint, timed as tear-down, not set-up), records the
// durable-write layers and removes its directories.
func (ld *liveDaemon) close(r *rep) error {
	defer os.RemoveAll(ld.dir)
	var buf bytes.Buffer
	if err := ld.d.WriteStatus(&buf); err != nil {
		return errors.Join(err, ld.d.Close())
	}
	var st daemonState
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return errors.Join(err, ld.d.Close())
	}
	st.Misses = ld.reg.Counter(obs.MetricMisses).Value()
	r.daemon = &st
	start := time.Now()
	if err := ld.d.Close(); err != nil {
		return err
	}
	r.teardown += r.top("daemon.close_s", start)
	if !r.traced {
		return nil
	}
	l, reg := r.layers, ld.reg
	recordObs(l, reg)
	purge := phaseSeconds("purge", ld.o)
	ckpt := phaseSeconds("checkpoint", ld.o)
	l["retention.purge_self_s"] = purge
	l["sim.checkpoint_s"] = ckpt
	l["sim.checkpoint_mb"] = float64(dirBytes(filepath.Join(ld.dir, "ckpt"))) / (1 << 20)
	l["sim.events"] = float64(r.events)
	l["sim.lanes"] = 1
	l["wal.records"] = float64(reg.Counter("daemon_wal_records_total").Value())
	l["wal.syncs"] = float64(reg.Counter("daemon_wal_syncs_total").Value())
	walBytes, err := walProbe(ld.evs, ld.ds.Users, filepath.Join(ld.dir, "walprobe"))
	if err != nil {
		return err
	}
	l["wal.mb"] = float64(walBytes) / (1 << 20)
	l["daemon.rejected"] = float64(reg.Counter("daemon_events_rejected_total").Value())
	var ackSum float64
	var plain, trig []float64
	for i, a := range r.acks {
		ackSum += a
		if r.ackTrig[i] {
			trig = append(trig, a)
		} else {
			plain = append(plain, a)
		}
	}
	l["daemon.ack_plain_p50_ms"] = median(plain)
	l["daemon.ack_trigger_p50_ms"] = median(trig)
	l["daemon.trigger_batches"] = float64(len(trig))
	// What of the acknowledged time no obs phase covers: WAL append and
	// fsync, event apply, queue hand-off.
	l["daemon.ingest_self_s"] = ackSum/1000 - purge - ckpt
	return nil
}

// walProbe appends the rep's events to a fresh side log through the
// wal package and returns its size on disk: the bytes the daemon's WAL
// wrote for them. The daemon's own log cannot be read at the end,
// because it prunes every segment a checkpoint covers.
func walProbe(evs []daemon.Event, users []trace.User, dir string) (int64, error) {
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	for i := range evs {
		p, err := evs[i].Encode(users)
		if err != nil {
			return 0, errors.Join(err, log.Close())
		}
		if _, err := log.Append(p); err != nil {
			return 0, errors.Join(err, log.Close())
		}
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	return dirBytes(dir), nil
}

// ingestRep is activedrd -feed @accesses -oneshot in-process: one
// closed-loop feeder sends 256-event batches and waits for each
// fsynced acknowledgment.
func ingestRep(b *bench, traced bool) (*rep, error) {
	r := newRep(traced)
	t0 := time.Now()
	ld, err := startDaemon(b, r)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0) - r.offWall
	evs := ld.feed()

	c0, wc0, w0 := cpuTime(), wcharNow(), time.Now()
	for i := 0; i < len(evs); i += batchEvents {
		batch := evs[i:min(i+batchEvents, len(evs))]
		if err := ld.ingest(r, len(batch), func() error { return ld.d.Ingest(batch) }); err != nil {
			r.checkErrs = append(r.checkErrs, fmt.Sprintf("ingest batch at event %d: %v", i, err))
			break
		}
	}
	r.work, r.cpu = time.Since(w0), cpuTime()-c0
	r.wchar = wcharNow() - wc0
	r.covered += r.work
	if err := ld.close(r); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// serveRep feeds the ingest stream as HTTP POSTs over loopback while
// one open-loop reader cycles the read routes at readRate. Two
// goroutines, two connections, one process.
func serveRep(b *bench, traced bool) (*rep, error) {
	r := newRep(traced)
	t0 := time.Now()
	ld, err := startDaemon(b, r)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	srv := httptest.NewServer(ld.d.Handler())
	r.top("daemon.new_s", start)
	r.setup = time.Since(t0) - r.offWall

	evs := ld.feed()
	var bodies []string
	for i := 0; i < len(evs); i += batchEvents {
		var sb strings.Builder
		for j := i; j < min(i+batchEvents, len(evs)); j++ {
			p, err := evs[j].Encode(ld.ds.Users)
			if err != nil {
				srv.Close()
				_ = ld.close(r) // the encode error is the one to report
				return nil, err
			}
			sb.Write(p)
			sb.WriteByte('\n')
		}
		bodies = append(bodies, sb.String())
	}
	feedClient := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	readClient := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.reads, r.lateMax = readLoop(readClient, srv.URL, ld.ds.Users, readsPerRep)
	}()
	c0, wc0, w0 := cpuTime(), wcharNow(), time.Now()
	for i, body := range bodies {
		n := min(batchEvents, len(evs)-i*batchEvents)
		if err := ld.ingest(r, n, func() error { return post(feedClient, srv.URL+"/v1/ingest", body) }); err != nil {
			r.checkErrs = append(r.checkErrs, fmt.Sprintf("ingest batch %d: %v", i, err))
			break
		}
	}
	r.work = time.Since(w0)
	wg.Wait()
	r.cpu, r.wchar = cpuTime()-c0, wcharNow()-wc0
	r.covered += r.work
	for _, s := range r.reads {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	start = time.Now()
	srv.Close()
	feedClient.CloseIdleConnections()
	readClient.CloseIdleConnections()
	r.teardown += r.top("daemon.close_s", start)
	if err := ld.close(r); err != nil {
		return nil, err
	}
	if traced {
		r.layers["loadgen.late_max_ms"] = ms(r.lateMax)
	}
	r.finish()
	return r, nil
}

func post(c *http.Client, url, body string) error {
	resp, err := c.Post(url, "text/tab-separated-values", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// readLoop sends n reads on a fixed schedule. Each read's latency
// counts from when it was due, so a stall also charges the reads
// queued behind it; the worst send lateness is returned.
func readLoop(c *http.Client, base string, users []trace.User, n int) ([]readSample, time.Duration) {
	var out []readSample
	var late time.Duration
	period := time.Second / readRate
	t0 := time.Now()
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		late = max(late, time.Since(due))
		route := k % len(readRoutes)
		url := base + "/v1/" + readRoutes[route]
		switch readRoutes[route] {
		case "plan":
			url += "?user=" + users[(k*planStride)%len(users)].Name
		case "victims":
			url += "?limit=100"
		}
		ok := get(c, url)
		out = append(out, readSample{route: route, ms: ms(time.Since(due)), ok: ok})
	}
	return out, late
}

func get(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK
}

// wcharNow reads wchar, or 0 where /proc/self/io is unavailable.
func wcharNow() int64 {
	n, _ := writtenBytes()
	return n
}

// batchReplayState replays the same events through an untimed batch
// sim.Emulator.Run: the state the daemon must end in.
func batchReplayState(b *bench) (daemonState, error) {
	ds, _, err := trace.LoadDatasetWith(b.dataDir, trace.ReadOptions{})
	if err != nil {
		return daemonState{}, err
	}
	em, err := sim.New(ds, paperConfig(90))
	if err != nil {
		return daemonState{}, err
	}
	p, err := newPolicy(em, b.policy)
	if err != nil {
		return daemonState{}, err
	}
	res, err := em.Run(p)
	if err != nil {
		return daemonState{}, err
	}
	return daemonState{
		Files:    res.Final.Count(),
		Bytes:    res.Final.TotalBytes(),
		Triggers: len(res.Reports),
		Applied:  int(res.TotalAccesses),
		Misses:   res.TotalMisses,
	}, nil
}
