package main

import (
	"fmt"
	"time"

	"activedr/internal/experiments"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
)

// paperConfig is the replay configuration simulate and activedrd use
// by default: the given lifetime, 7-day triggers, 50% purge target.
func paperConfig(lifetimeDays int) sim.Config {
	return sim.Config{
		Lifetime:          timeutil.Days(lifetimeDays),
		TriggerInterval:   timeutil.Days(7),
		TargetUtilization: 0.5,
	}
}

func newPolicy(em *sim.Emulator, name string) (retention.Policy, error) {
	if name == sim.PolicyFLT {
		return em.NewFLT(), nil
	}
	return em.NewActiveDR()
}

func newObserver() (*obs.Observer, *obs.Registry) {
	reg := obs.NewRegistry()
	o, err := obs.NewObserver(reg, nil, 0)
	if err != nil {
		panic(err) // audit sample 0 is always valid
	}
	return o, reg
}

// replayRep is what simulate does by default: FLT and then ActiveDR at
// 90 days, each replayed event by event through its own sim.Stream.
func replayRep(b *bench, traced bool) (*rep, error) {
	r := newRep(traced)
	t0 := time.Now()
	ds, err := r.load(b.dataDir)
	if err != nil {
		return nil, err
	}
	base, err := r.build(ds, true)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	em, err := sim.NewWithBase(ds, base, paperConfig(90))
	if err != nil {
		return nil, err
	}
	r.top("activeness.index_s", start)
	r.setup = time.Since(t0)

	var pt policyTimes
	var o *obs.Observer
	var reg *obs.Registry
	if traced {
		o, reg = newObserver()
	}
	var applyTotal time.Duration
	c0, w0 := cpuTime(), time.Now()
	for _, name := range []string{sim.PolicyFLT, sim.PolicyActiveDR} {
		p, err := newPolicy(em, name)
		if err != nil {
			return nil, err
		}
		var tp *tracedPolicy
		opts := sim.RunOptions{}
		if traced {
			tp = &tracedPolicy{inner: p, t: &pt, wrap: b.wrapNS}
			p, opts.Obs = tp, o
		}
		start := time.Now()
		s := em.NewStream(p, opts)
		r.top("sim.stream_new_s", start)
		start = time.Now()
		for i := range ds.Accesses {
			a := &ds.Accesses[i]
			if tp != nil && a.TS >= s.NextTrigger() {
				tp.mark = time.Now()
			}
			if err := s.Apply(a); err != nil {
				return nil, fmt.Errorf("replay %s: %w", name, err)
			}
		}
		applyTotal += r.top("sim.apply_self_s", start)
		r.checkLane(name, s.Result(), len(ds.Accesses), s.FS())
	}
	r.work, r.cpu = time.Since(w0), cpuTime()-c0
	r.events = 2 * int64(len(ds.Accesses))
	r.attempted += r.events
	if traced {
		r.layers["sim.apply_self_s"] = (applyTotal - pt.rank - pt.purge).Seconds()
		r.layers["sim.events"] = float64(r.events)
		r.layers["sim.lanes"] = 2
		pt.record(r.layers)
		recordObs(r.layers, reg)
	}
	r.finish()
	return r, nil
}

// record stores the decorator measurements as per-layer metrics.
func (pt *policyTimes) record(l map[string]float64) {
	l["activeness.rank_s"] = pt.rank.Seconds()
	l["activeness.rank_calls"] = float64(pt.rankCalls)
	l["retention.purge_self_s"] = (pt.purge - pt.sel - pt.remove).Seconds()
	l["vfs.select_s"] = pt.sel.Seconds()
	l["vfs.select_calls"] = float64(pt.selCalls)
	l["vfs.candidates"] = float64(pt.cands)
	l["vfs.remove_s"] = pt.remove.Seconds()
	l["vfs.removes"] = float64(pt.removes)
}

// recordObs copies the counters internal/obs exports into the layer
// table.
func recordObs(l map[string]float64, regs ...*obs.Registry) {
	sum := func(name string) float64 {
		var v int64
		for _, reg := range regs {
			v += reg.Counter(name).Value()
		}
		return float64(v)
	}
	l["vfs.touches"] = sum(obs.MetricVFSTouches)
	l["vfs.inserts"] = sum(obs.MetricVFSInserts)
	l["vfs.touch_misses"] = sum(obs.MetricVFSTouchMisses)
	l["retention.triggers"] = sum(obs.MetricTriggers)
	l["retention.examined"] = sum(obs.MetricPurgeExamined)
	l["retention.purged_files"] = sum(obs.MetricPurgedFiles)
	if ex := l["retention.examined"]; ex > 0 {
		l["retention.useful_frac"] = l["retention.purged_files"] / ex
	}
	l["sim.checkpoints"] = sum(obs.MetricCheckpoints)
	if _, ok := l["vfs.select_calls"]; !ok {
		l["vfs.select_calls"] = sum(obs.MetricVFSStaleQueries)
	}
}

// phaseSeconds sums one obs phase across observers.
func phaseSeconds(name string, os ...*obs.Observer) float64 {
	var s float64
	for _, o := range os {
		for _, p := range o.Phases() {
			if p.Name == name {
				s += p.Seconds
			}
		}
	}
	return s
}

// sweepLifetimes are the lifetimes report -fig all precomputes, one
// FLT and one ActiveDR lane each.
var sweepLifetimes = []int{7, 30, 60, 90}

// sweepRep is what report -fig all precomputes: one multiplexed pass
// of eight lanes over a shared columnar feed.
func sweepRep(b *bench, traced bool) (*rep, error) {
	r := newRep(traced)
	t0 := time.Now()
	ds, err := r.load(b.dataDir)
	if err != nil {
		return nil, err
	}
	base, err := r.build(ds, true)
	if err != nil {
		return nil, err
	}
	m := sim.NewMultiplexerWithBase(ds, base)
	r.setup = time.Since(t0)

	var lanes []sim.LaneSpec
	var observers []*obs.Observer
	var regs []*obs.Registry
	for _, d := range sweepLifetimes {
		cfg := paperConfig(d)
		cfg.CaptureAt = experiments.CaptureDate
		for _, p := range []string{sim.PolicyFLT, sim.PolicyActiveDR} {
			spec := sim.LaneSpec{Config: cfg, Policy: p}
			if traced {
				o, reg := newObserver()
				spec.Opts.Obs = o
				observers, regs = append(observers, o), append(regs, reg)
			}
			lanes = append(lanes, spec)
		}
	}
	c0, w0 := cpuTime(), time.Now()
	res, err := m.Run(lanes)
	if err != nil {
		return nil, err
	}
	run := r.top("sim.mux_run_s", w0)
	r.work, r.cpu = time.Since(w0), cpuTime()-c0
	r.events = int64(len(lanes) * len(ds.Accesses))
	r.attempted += r.events
	for i, res := range res {
		r.checkLane(fmt.Sprintf("%s-%dd", lanes[i].Policy, lanes[i].Config.Lifetime/timeutil.Day), res, len(ds.Accesses), res.Final)
	}
	if traced {
		purge := phaseSeconds("purge", observers...)
		r.layers["retention.purge_self_s"] = purge
		r.layers["sim.mux_run_s"] = run.Seconds() - purge
		r.layers["sim.events"] = float64(r.events)
		r.layers["sim.lanes"] = float64(len(lanes))
		recordObs(r.layers, regs...)
	}
	r.finish()
	return r, nil
}
