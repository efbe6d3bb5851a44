package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"activedr/internal/sim"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// rep is one repetition of a workload: set-up, the measured loop, and
// what the output checks need.
type rep struct {
	traced   bool
	setup    time.Duration // before the measured loop: load, namespace, engine or daemon
	work     time.Duration // the measured loop
	teardown time.Duration // after it: the daemon's close and the HTTP server's stop
	cpu      time.Duration // user+system CPU during the measured loop
	events   int64         // lane-events applied or events acknowledged
	wchar    int64         // bytes written during the measured loop
	calib    time.Duration // the calibration kernel's CPU time around the rep
	peakMB   float64       // VmHWM over the rep, the calibration kernel left out

	acks    []float64 // per-batch acknowledgment latency, ms
	ackTrig []bool    // whether the batch fired a purge trigger
	reads   []readSample
	lateMax time.Duration // how late the open-loop reader ran at worst

	attempted, failed int64
	checkErrs         []string
	digest            string           // replay result summary, equal across reps
	misses            map[string]int64 // total misses per replay lane
	daemon            *daemonState     // final daemon state (ingest, serve)

	layers  map[string]float64
	covered time.Duration // wall covered by top-level spans
	offWall time.Duration // side probes excluded from the rep's wall
	mem0    runtime.MemStats
}

func newRep(traced bool) *rep {
	r := &rep{traced: traced, layers: make(map[string]float64), misses: make(map[string]int64)}
	if traced {
		runtime.ReadMemStats(&r.mem0)
	}
	return r
}

// top records a top-level span that started at start; top-level spans
// tile the rep's wall time, and what they leave uncovered is reported
// as bench.unattributed_frac.
func (r *rep) top(name string, start time.Time) time.Duration {
	d := time.Since(start)
	r.covered += d
	r.layers[name] += d.Seconds()
	return d
}

func (r *rep) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// load reads the dataset and records the decode layer.
func (r *rep) load(dir string) (*trace.Dataset, error) {
	start := time.Now()
	ds, _, err := trace.LoadDatasetWith(dir, trace.ReadOptions{})
	if err != nil {
		return nil, err
	}
	d := r.top("trace.load_s", start)
	mb := float64(dirBytes(dir)) / (1 << 20)
	r.layers["trace.input_mb"] = mb
	r.layers["trace.decode_mb_per_s"] = mb / d.Seconds()
	return ds, nil
}

// build loads the snapshot into a namespace and records its footprint.
func (r *rep) build(ds *trace.Dataset, span bool) (*vfs.FS, error) {
	start := time.Now()
	base, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		return nil, err
	}
	if span {
		r.top("vfs.build_s", start)
	} else {
		r.layers["vfs.build_s"] += time.Since(start).Seconds()
	}
	if r.traced {
		st := base.Stats()
		r.layers["vfs.files"] = float64(st.Files)
		r.layers["vfs.nodes"] = float64(st.Nodes)
		r.layers["vfs.label_mb"] = float64(st.LabelBytes) / (1 << 20)
	}
	return base, nil
}

// finish records the process-level layer: garbage collection and
// allocation over the rep.
func (r *rep) finish() {
	if !r.traced {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layers["proc.gc_cycles"] = float64(m.NumGC - r.mem0.NumGC)
	r.layers["proc.gc_pause_s"] = float64(m.PauseTotalNs-r.mem0.PauseTotalNs) / 1e9
	r.layers["proc.alloc_mb"] = float64(m.TotalAlloc-r.mem0.TotalAlloc) / (1 << 20)
	wall := r.wall()
	r.layers["bench.unattributed_frac"] = 1 - r.covered.Seconds()/wall.Seconds()
}

// wall is the repetition's measured wall time, side probes excluded.
func (r *rep) wall() time.Duration { return r.setup + r.work + r.teardown }

// checkLane verifies one replay lane's accounting identities and folds
// its outcome into the rep's digest.
func (r *rep) checkLane(name string, res *sim.Result, logLen int, fsys vfs.Namespace) {
	r.check(res.TotalAccesses == int64(logLen), "%s: %d accesses replayed, log has %d", name, res.TotalAccesses, logLen)
	var byGroup, dayAcc, dayMiss int64
	for _, m := range res.MissesByGroup {
		byGroup += m
	}
	for _, d := range res.Days {
		dayAcc += d.Accesses
		dayMiss += d.Misses
	}
	r.check(byGroup == res.TotalMisses, "%s: per-group misses sum to %d, total is %d", name, byGroup, res.TotalMisses)
	r.check(res.RestoredFiles == res.TotalMisses, "%s: %d restores for %d misses", name, res.RestoredFiles, res.TotalMisses)
	r.check(dayAcc == res.TotalAccesses && dayMiss == res.TotalMisses,
		"%s: day series sums to %d accesses/%d misses, totals are %d/%d", name, dayAcc, dayMiss, res.TotalAccesses, res.TotalMisses)
	r.misses[name] = res.TotalMisses
	h := fnv.New64a()
	for _, rep := range res.Reports {
		fmt.Fprintf(h, "%d %d %d %d|", rep.At, rep.PurgedFiles, rep.PurgedBytes, rep.FilesBefore)
	}
	r.digest += fmt.Sprintf("%s: accesses=%d misses=%d groups=%v restored=%d/%d triggers=%d purges=%x files=%d bytes=%d\n",
		name, res.TotalAccesses, res.TotalMisses, res.MissesByGroup, res.RestoredFiles, res.RestoredBytes,
		len(res.Reports), h.Sum64(), fsys.Count(), fsys.TotalBytes())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
