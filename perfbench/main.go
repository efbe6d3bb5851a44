// Command perfbench is the repository's end-to-end benchmark. Each
// run generates its inputs from a seed, runs one named workload
// repeatedly for a fixed time, checks the outputs, and prints one
// JSON result line. With -trace 1 it also runs the workload through
// timing decorators around each layer and prints the per-layer table.
//
// Run it from the repository root through the wrapper, which builds
// the binary first:
//
//	python3 perfbench/run.py --workload replay --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"activedr/internal/sim"
	"activedr/internal/vfs"
)

// workload is one named benchmark workload.
type workload struct {
	name  string
	users int // synthetic users in the generated dataset
	rep   func(b *bench, traced bool) (*rep, error)
	// daemon marks the workloads whose final state is checked against
	// a batch replay of the same events.
	daemon bool
}

// The user counts keep each run's median over many repetitions and
// each run short. At 6000 users a 25 s run holds only three replay
// repetitions and its inputs take 7.8 s to generate; at 1500 a replay
// repetition takes about 1.5 s on a 2-vCPU host. The daemon workloads
// run at 1000 users (226k events, about 3 s a repetition) rather than
// 2000 (4-7 s) for the same reason, and ingest at 500 (115k events,
// 1-2 s): a 28 s run then holds 13-18 repetitions, each bracketed by
// calibration runs about 2 s apart instead of 4, and the scaled CPU
// per event of five seeds spread 0.042 against 0.086 over ten at 1000.
var workloads = []workload{
	{name: "replay", users: 1500, rep: replayRep},
	{name: "sweep", users: 1500, rep: sweepRep},
	{name: "ingest", users: 500, rep: ingestRep, daemon: true},
	{name: "serve", users: 1000, rep: serveRep, daemon: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one benchmark run's configuration and scratch space.
type bench struct {
	dataDir string
	runDir  string
	policy  string // daemon workloads' retention policy
	calib   *calibrator
	// wrapNS builds the namespace view a traced policy purges through.
	wrapNS func(vfs.Namespace, *policyTimes) vfs.Namespace
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports without tracing;
// BENCHMARK.json bounds each of them. CPU time per event is scaled to
// calibration speed (calib.go) so that a neighbour's load on a shared
// host does not read as a change in the program. Wall-clock throughput is not
// among them: on a shared 2-vCPU host the same serve run's throughput
// halved within twenty minutes under a neighbour's load, beyond any
// bound a regression gate can use.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_event", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload
// bypasses reads 0.
var perLayer = []metricDef{
	{"trace.load_s", "s"}, {"trace.input_mb", "MB"}, {"trace.decode_mb_per_s", "MB/s"},
	{"vfs.build_s", "s"}, {"vfs.files", "count"}, {"vfs.nodes", "count"}, {"vfs.label_mb", "MB"},
	{"vfs.select_s", "s"}, {"vfs.select_calls", "count"}, {"vfs.candidates", "count"},
	{"vfs.remove_s", "s"}, {"vfs.removes", "count"},
	{"vfs.touches", "count"}, {"vfs.inserts", "count"}, {"vfs.touch_misses", "count"},
	{"activeness.index_s", "s"}, {"activeness.rank_s", "s"}, {"activeness.rank_calls", "count"},
	{"retention.purge_self_s", "s"}, {"retention.triggers", "count"}, {"retention.examined", "count"},
	{"retention.purged_files", "count"}, {"retention.useful_frac", "frac"},
	{"sim.stream_new_s", "s"}, {"sim.apply_self_s", "s"}, {"sim.events", "count"},
	{"sim.mux_run_s", "s"}, {"sim.lanes", "count"},
	{"sim.checkpoint_s", "s"}, {"sim.checkpoints", "count"}, {"sim.checkpoint_mb", "MB"},
	{"wal.records", "count"}, {"wal.syncs", "count"}, {"wal.mb", "MB"},
	{"daemon.new_s", "s"}, {"daemon.close_s", "s"}, {"daemon.ingest_self_s", "s"},
	{"daemon.ack_plain_p50_ms", "ms"}, {"daemon.ack_trigger_p50_ms", "ms"},
	{"daemon.trigger_batches", "count"}, {"daemon.rejected", "count"},
	{"daemon.route.ranks_p50_ms", "ms"}, {"daemon.route.plan_p50_ms", "ms"},
	{"daemon.route.victims_p50_ms", "ms"}, {"daemon.route.status_p50_ms", "ms"},
	{"proc.gc_cycles", "count"}, {"proc.gc_pause_s", "s"}, {"proc.alloc_mb", "MB"},
	{"loadgen.late_max_ms", "ms"},
	{"bench.unattributed_frac", "frac"}, {"bench.tracing_overhead_frac", "frac"},
	{"bench.calib_ms", "ms"}, {"bench.cpu_us_per_event_raw", "us"},
	// End-to-end figures that cannot carry a regression bound: too
	// noisy on a shared host, present on only some workloads, or 0 on
	// a correct run. Rates, CPU and bytes come from the run's untraced
	// repetitions, latency percentiles from all of them.
	{"events_per_s", "1/s"}, {"ack_p50_ms", "ms"}, {"ack_p99_ms", "ms"}, {"read_p50_ms", "ms"}, {"read_p90_ms", "ms"},
	{"write_bytes_per_event", "B"}, {"error_frac", "frac"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseFlags(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 28, "how long to repeat the workload")
	tr := fs.Int("trace", 0, "1 adds traced repetitions and reports the per-layer table")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if *tr != 0 && *tr != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *tr)
	}
	o.trace = *tr == 1
	return o, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		os.Exit(genMain(os.Args[2:], os.Stderr))
	}
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runMain(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// runMain generates the inputs in a scratch directory under the build
// directory, runs the workload and removes the scratch again.
func runMain(o options) (*result, error) {
	w, _ := findWorkload(o.workload)
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b := &bench{dataDir: filepath.Join(runDir, "data"), runDir: runDir, policy: sim.PolicyActiveDR, wrapNS: newTracedNS}
	if err := generateInChild(b.dataDir, o.seed, w.users); err != nil {
		return nil, err
	}
	return b.run(w, time.Duration(o.seconds*float64(time.Second)), o.trace)
}

// repeat runs reps until the next one would likely overrun budget
// (always at least one). Each starts from a collected heap.
func (b *bench) repeat(budget time.Duration, fn func() (*rep, error)) ([]*rep, error) {
	start := time.Now()
	var reps []*rep
	before := b.calib.run()
	for {
		runtime.GC()
		// Where VmHWM cannot be reset, each rep reads the peak so far.
		_ = resetPeakRSS()
		r, err := fn()
		if err != nil {
			return reps, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return reps, err
		}
		r.peakMB = peak - calibMB
		after := b.calib.run()
		r.calib = (before + after) / 2
		before = after
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "rep %d traced=%v: setup %.3fs, %d events in %.3fs (%.0f/s), cpu %.3fs, teardown %.3fs, calibration %.3fs, peak %.1f MB\n",
			len(reps), r.traced, r.setup.Seconds(), r.events, r.work.Seconds(), float64(r.events)/r.work.Seconds(), r.cpu.Seconds(), r.teardown.Seconds(), r.calib.Seconds(), r.peakMB)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(reps)) > budget {
			return reps, nil
		}
	}
}

// run measures workload w for budget: untraced repetitions, then, when
// traced, as many traced ones; then the output checks.
func (b *bench) run(w workload, budget time.Duration, traced bool) (*result, error) {
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer calib.close()
	b.calib = calib
	plainBudget := budget
	if traced {
		plainBudget = budget / 2
	}
	plain, err := b.repeat(plainBudget, func() (*rep, error) { return w.rep(b, false) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var tr []*rep
	if traced {
		if tr, err = b.repeat(budget-plainBudget, func() (*rep, error) { return w.rep(b, true) }); err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
	}
	res := &result{workload: w.name, traced: traced, plain: plain, tracedReps: tr}
	all := append(append([]*rep(nil), plain...), tr...)
	for i, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.errs = append(res.errs, r.checkErrs...)
		if i > 0 {
			res.check(r.digest == all[0].digest, "rep %d (traced=%v) results differ from rep 0:\n%s---\n%s", i, r.traced, r.digest, all[0].digest)
		}
	}
	if w.daemon {
		want, err := batchReplayState(b)
		if err != nil {
			return nil, err
		}
		for i, r := range all {
			res.check(r.daemon != nil && *r.daemon == want, "rep %d: daemon ended at %v, batch replay of the same events at %v", i, r.daemon, want)
		}
	}
	res.Correct = res.Failed == 0
	res.summarize()
	return res, nil
}

// result is a finished run: the printed metrics and the check outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload   string
	traced     bool
	plain      []*rep
	tracedReps []*rep
	errs       []string
	table      []row
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the human-readable table.
type row struct {
	name, unit, note string
	value            float64
}

func (res *result) check(ok bool, format string, args ...any) {
	res.Attempted++
	if !ok {
		res.Failed++
		res.errs = append(res.errs, fmt.Sprintf(format, args...))
	}
}

func (res *result) add(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	res.table = append(res.table, row{name, metricUnit(name), note, v})
}

// metricUnit looks a printed metric's unit up in its definition.
func metricUnit(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}

// summarize derives every metric from the repetitions.
func (res *result) summarize() {
	var setup, peak, rate, cpu, raw, calib, wbytes []float64
	for _, r := range res.plain {
		setup = append(setup, r.setup.Seconds())
		peak = append(peak, r.peakMB)
		if r.events > 0 {
			rate = append(rate, float64(r.events)/r.work.Seconds())
			us := float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.events)
			raw = append(raw, us)
			cpu = append(cpu, us*float64(calibRef)/float64(r.calib))
			calib = append(calib, ms(r.calib))
			wbytes = append(wbytes, float64(r.wchar)/float64(r.events))
		}
	}
	// Latency samples pool every rep, traced or not: ingest and serve
	// trace only before and after the feed loop, so tracing does not
	// touch what they time, and a traced run keeps all its samples.
	var acks, reads []float64
	routes := make([][]float64, len(readRoutes))
	for _, r := range append(append([]*rep(nil), res.plain...), res.tracedReps...) {
		acks = append(acks, r.acks...)
		for _, s := range r.reads {
			reads = append(reads, s.ms)
			routes[s.route] = append(routes[s.route], s.ms)
		}
	}
	n := len(res.plain)
	res.add("setup_s", median(setup), fmt.Sprintf("median of %d set-ups", n))
	res.add("events_per_s", median(rate), fmt.Sprintf("median of %d reps", n))
	res.add("cpu_us_per_event", median(cpu), fmt.Sprintf("median of %d reps, at calibration speed", n))
	res.add("bench.calib_ms", median(calib), fmt.Sprintf("median of %d kernel runs around the reps", n))
	res.add("bench.cpu_us_per_event_raw", median(raw), fmt.Sprintf("median of %d reps, as measured", n))
	res.add("peak_rss_mb", median(peak), fmt.Sprintf("median of %d reps' VmHWM, the calibration kernel's %.0f MB taken out", n, calibMB))
	res.add("error_frac", float64(res.Failed)/float64(max(res.Attempted, 1)),
		fmt.Sprintf("%d failed of %d attempted", res.Failed, res.Attempted))
	ackTail := tailPercentile(len(acks), 99)
	res.add("ack_p50_ms", percentile(acks, 50), fmt.Sprintf("p50 of %d batches", len(acks)))
	res.add("ack_p99_ms", percentile(acks, ackTail), fmt.Sprintf("p%g of %d batches", ackTail, len(acks)))
	readTail := tailPercentile(len(reads), 90)
	res.add("read_p50_ms", percentile(reads, 50), fmt.Sprintf("p50 of %d reads", len(reads)))
	res.add("read_p90_ms", percentile(reads, readTail), fmt.Sprintf("p%g of %d reads", readTail, len(reads)))
	res.add("write_bytes_per_event", median(wbytes), fmt.Sprintf("median of %d reps", n))

	if res.traced {
		pick := medianRep(res.tracedReps)
		var tw, pw []float64
		for _, r := range res.tracedReps {
			tw = append(tw, r.wall().Seconds())
		}
		for _, r := range res.plain {
			pw = append(pw, r.wall().Seconds())
		}
		pick.layers["bench.tracing_overhead_frac"] = median(tw)/median(pw) - 1
		if len(reads) > 0 {
			for i, route := range readRoutes {
				pick.layers["daemon.route."+route+"_p50_ms"] = median(routes[i])
			}
		}
		for _, m := range perLayer {
			if v, ok := pick.layers[m.name]; ok {
				res.add(m.name, v, "")
			}
		}
	}
	res.Metrics = make(map[string]metricValue)
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Unit: m.unit}
	}
	for _, row := range res.table {
		if mv, ok := res.Metrics[row.name]; ok {
			mv.Value = row.value
			res.Metrics[row.name] = mv
		}
	}
}

// medianRep is the traced repetition with the median wall time; its
// layer table is the one reported.
func medianRep(reps []*rep) *rep {
	s := append([]*rep(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i].wall() < s[j].wall() })
	return s[(len(s)-1)/2]
}

func (res *result) print(w io.Writer) {
	mode := "untraced"
	if res.traced {
		mode = "untraced + traced"
	}
	fmt.Fprintf(w, "perfbench %s: %d untraced reps, %d traced reps (%s)\n", res.workload, len(res.plain), len(res.tracedReps), mode)
	for _, r := range res.table {
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", r.name, r.value, r.unit, r.note)
	}
	for _, e := range res.errs {
		fmt.Fprintln(w, "CHECK FAILED:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
