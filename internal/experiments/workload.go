package experiments

// Workload scenario: the real-trace counterpart of the synthetic
// figures. The suite's dataset (typically an IN2P3 adaptation) is
// replayed as-is, fitted into a reconstruction model, regenerated at
// each requested scale, and every trace runs through the multiplexed
// FLT/ActiveDR sweep. The report compares activeness-class shares and
// per-policy purge totals across source and reconstructions, with the
// upscaled runs normalized back to 1x-equivalents.

import (
	"fmt"
	"io"
	"path/filepath"

	"activedr/internal/report"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
	"activedr/internal/workload"
)

// workloadSimConfig is the replay setting every workload trace runs
// under — the same 90-day/weekly/50% point the reconstruction
// fidelity acceptance pins.
var workloadSimConfig = sim.Config{
	Lifetime:          timeutil.Days(90),
	TriggerInterval:   timeutil.Days(7),
	TargetUtilization: 0.5,
}

// WorkloadScenarioConfig parameterizes the scenario.
type WorkloadScenarioConfig struct {
	// Scales lists the regeneration multipliers; nil selects {1, 10}.
	Scales []int
	// Seed drives the regeneration draws.
	Seed uint64
	// SnapDir, when non-empty, routes every scale > 1 through the
	// out-of-core path: the snapshot streams into a snapfile there and
	// the replay runs against the tree decoded from that snapfile
	// instead of a materialized snapshot.
	SnapDir string
}

// WorkloadTrace is one replayed trace (the source or a regeneration).
type WorkloadTrace struct {
	Name          string
	Scale         int // 0 for the source
	Users         int
	SnapshotBytes int64
	// ClassShares is the activeness-class breakdown of the trace's own
	// fit (the source row carries the model the regenerations used).
	ClassShares map[string]float64
	// Purged/Misses are per-policy replay totals, keyed by
	// sim.PolicyFLT / sim.PolicyActiveDR.
	Purged map[string]int64
	Misses map[string]int64
	// Delta is the per-policy purge-total offset versus the source,
	// after dividing the upscaled total by the scale: 0.03 means the
	// reconstruction purges 3% more per 1x-equivalent than the source.
	Delta map[string]float64
	// OutOfCore marks rows replayed through the snapfile path.
	OutOfCore bool
}

// WorkloadScenarioResult backs the scenario report.
type WorkloadScenarioResult struct{ Traces []WorkloadTrace }

// workloadLanes is the two-lane FLT/ActiveDR spec every trace runs.
func workloadLanes(cfg sim.Config) []sim.LaneSpec {
	return []sim.LaneSpec{
		{Config: cfg, Policy: sim.PolicyFLT},
		{Config: cfg, Policy: sim.PolicyActiveDR},
	}
}

// workloadReplay runs the multiplexed two-lane sweep and folds the
// results into per-policy totals.
func workloadReplay(m *sim.Multiplexer, cfg sim.Config) (purged, misses map[string]int64, err error) {
	res, err := m.Run(workloadLanes(cfg))
	if err != nil {
		return nil, nil, err
	}
	purged = make(map[string]int64, 2)
	misses = make(map[string]int64, 2)
	for i, policy := range []string{sim.PolicyFLT, sim.PolicyActiveDR} {
		var b int64
		for _, rep := range res[i].Reports {
			b += rep.PurgedBytes
		}
		purged[policy] = b
		misses[policy] = res[i].TotalMisses
	}
	return purged, misses, nil
}

// WorkloadScenario fits the suite's dataset, regenerates it at each
// scale, and replays everything through the multiplexed policy sweep.
func (s *Suite) WorkloadScenario(cfg WorkloadScenarioConfig) (*WorkloadScenarioResult, error) {
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = []int{1, 10}
	}
	m, err := workload.Fit(s.ds)
	if err != nil {
		return nil, fmt.Errorf("experiments: fit workload model: %w", err)
	}

	mux, err := sim.NewMultiplexer(s.ds)
	if err != nil {
		return nil, err
	}
	srcPurged, srcMisses, err := workloadReplay(mux, workloadSimConfig)
	if err != nil {
		return nil, fmt.Errorf("experiments: source replay: %w", err)
	}
	res := &WorkloadScenarioResult{Traces: []WorkloadTrace{{
		Name:          "source",
		Users:         len(s.ds.Users),
		SnapshotBytes: s.ds.Snapshot.TotalBytes(),
		ClassShares:   m.ClassShares(),
		Purged:        srcPurged,
		Misses:        srcMisses,
	}}}

	for _, scale := range scales {
		row, err := s.workloadRegenRow(m, scale, cfg, srcPurged)
		if err != nil {
			return nil, fmt.Errorf("experiments: %dx regen: %w", scale, err)
		}
		res.Traces = append(res.Traces, *row)
	}
	return res, nil
}

// workloadRegenRow regenerates at one scale and replays it, either on
// a materialized snapshot or (SnapDir set, scale > 1) through the
// snapfile out-of-core path.
func (s *Suite) workloadRegenRow(m *workload.Model, scale int, cfg WorkloadScenarioConfig, srcPurged map[string]int64) (*WorkloadTrace, error) {
	outOfCore := cfg.SnapDir != "" && scale > 1
	rcfg := workload.RegenConfig{Scale: scale, Seed: cfg.Seed, SkipSnapshot: outOfCore}
	ds, err := workload.Regen(m, rcfg)
	if err != nil {
		return nil, err
	}
	refit, err := workload.Fit(ds)
	if err != nil {
		return nil, err
	}

	var mux *sim.Multiplexer
	var snapBytes int64
	if outOfCore {
		snapBytes, mux, err = workloadOutOfCore(m, rcfg, ds, filepath.Join(cfg.SnapDir, fmt.Sprintf("regen%dx.snap", scale)))
		if err != nil {
			return nil, err
		}
	} else {
		snapBytes = ds.Snapshot.TotalBytes()
		mux, err = sim.NewMultiplexer(ds)
		if err != nil {
			return nil, err
		}
	}
	purged, misses, err := workloadReplay(mux, workloadSimConfig)
	if err != nil {
		return nil, err
	}
	row := &WorkloadTrace{
		Name:          fmt.Sprintf("regen %dx", scale),
		Scale:         scale,
		Users:         len(ds.Users),
		SnapshotBytes: snapBytes,
		ClassShares:   refit.ClassShares(),
		Purged:        purged,
		Misses:        misses,
		Delta:         make(map[string]float64, 2),
		OutOfCore:     outOfCore,
	}
	for policy, got := range purged {
		if want := srcPurged[policy]; want != 0 {
			row.Delta[policy] = float64(got)/float64(scale)/float64(want) - 1
		}
	}
	return row, nil
}

// workloadOutOfCore streams the scaled snapshot into a snapfile and
// reopens it as the replay's base file system — the bounded-memory
// path a full-scale run takes; the dataset itself never materializes
// the namespace.
func workloadOutOfCore(m *workload.Model, rcfg workload.RegenConfig, ds *trace.Dataset, snapPath string) (int64, *sim.Multiplexer, error) {
	w, err := vfs.NewSnapfileWriter(snapPath, m.Taken)
	if err != nil {
		return 0, nil, err
	}
	if _, err := workload.StreamSnapshot(m, rcfg, func(e trace.SnapshotEntry) error {
		return w.Add(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
	}); err != nil {
		_ = w.Abort()
		return 0, nil, err
	}
	if err := w.Finish(); err != nil {
		return 0, nil, err
	}
	sf, err := vfs.OpenSnapfile(snapPath)
	if err != nil {
		return 0, nil, err
	}
	base, err := vfs.LoadSnapfileFS(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, nil, err
	}
	ds.Snapshot.Taken = m.Taken
	return base.TotalBytes(), sim.NewMultiplexerWithBase(ds, base), nil
}

// Render writes the scenario report: class-share fidelity first, then
// the per-policy purge/miss comparison.
func (r *WorkloadScenarioResult) Render(w io.Writer) {
	classes := []string{workload.ClassDormant, workload.ClassCasual, workload.ClassSteady, workload.ClassPower}
	ct := report.NewTable("Workload scenario: activeness-class shares (fit of each trace)",
		"Trace", "Users", "Snapshot", classes[0], classes[1], classes[2], classes[3])
	for _, tr := range r.Traces {
		row := []string{tr.Name, fmt.Sprint(tr.Users), report.Bytes(tr.SnapshotBytes)}
		for _, c := range classes {
			row = append(row, fmt.Sprintf("%.1f%%", 100*tr.ClassShares[c]))
		}
		ct.AddRow(row...)
	}
	ct.Render(w)

	pt := report.NewTable("Workload scenario: per-policy replay totals",
		"Trace", "Policy", "Purged", "Misses", "Δ/1x vs source", "Replay")
	for _, tr := range r.Traces {
		for _, policy := range []string{sim.PolicyFLT, sim.PolicyActiveDR} {
			delta := "—"
			if tr.Scale > 0 {
				delta = report.Percent(tr.Delta[policy])
			}
			mode := "in-memory"
			if tr.OutOfCore {
				mode = "snapfile"
			}
			pt.AddRow(tr.Name, policy, report.Bytes(tr.Purged[policy]),
				fmt.Sprint(tr.Misses[policy]), delta, mode)
		}
	}
	pt.Render(w)
}
