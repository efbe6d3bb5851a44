package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/sim"
	"activedr/internal/vfs"
)

// testUsers keeps every workload's repetition well under a second.
const testUsers = 120

func testBench(t *testing.T, seed int64) *bench {
	t.Helper()
	dir := t.TempDir()
	b := &bench{dataDir: filepath.Join(dir, "data"), runDir: dir, policy: sim.PolicyActiveDR, wrapNS: newTracedNS}
	if err := generate(b.dataDir, seed, testUsers); err != nil {
		t.Fatal(err)
	}
	return b
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, m := range defs {
		out = append(out, m.name)
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	b := testBench(t, 3)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := b.run(w, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d/%d: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, res.errs)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Fatalf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
			for i, r := range append(append([]*rep(nil), res.plain...), res.tracedReps...) {
				if r.calib <= 0 {
					t.Errorf("%s rep %d: calibration time %v", w.name, i, r.calib)
				}
				if w.name == "serve" && len(r.reads) != readsPerRep {
					t.Errorf("serve rep %d: %d reads, want %d", i, len(r.reads), readsPerRep)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]any
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(last) != 4 {
				t.Fatalf("%s: result keys %v, want correct/attempted/failed/metrics", w.name, last)
			}
		}
	}
}

// TestWorkloadsAgreeOnMisses checks the engines against each other:
// the sweep's 90-day lanes, the per-event replay and the daemon count
// the same FLT and ActiveDR misses on one input.
func TestWorkloadsAgreeOnMisses(t *testing.T) {
	b := testBench(t, 5)
	rp, err := replayRep(b, false)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sweepRep(b, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{sim.PolicyFLT, sim.PolicyActiveDR} {
		b.policy = policy
		in, err := ingestRep(b, false)
		if err != nil {
			t.Fatal(err)
		}
		want := rp.misses[policy]
		if want == 0 {
			t.Fatalf("%s: replay counted no misses; the input exercises nothing", policy)
		}
		if got := sw.misses[policy+"-90d"]; got != want {
			t.Errorf("%s: sweep 90d lane misses %d, replay %d", policy, got, want)
		}
		if got := in.daemon.Misses; got != want {
			t.Errorf("%s: daemon misses %d, replay %d", policy, got, want)
		}
	}
}

// dropOneRemove is a broken decorator: it swallows the first removal
// a purge asks for while reporting it done.
type dropOneRemove struct {
	vfs.Namespace
	dropped *bool
}

func (n *dropOneRemove) RemoveCandidate(c vfs.Candidate) (vfs.FileMeta, bool) {
	if !*n.dropped {
		*n.dropped = true
		return c.Meta, true
	}
	return n.Namespace.RemoveCandidate(c)
}

func TestBrokenDecoratorTripsCheck(t *testing.T) {
	b := testBench(t, 7)
	dropped := false
	b.wrapNS = func(ns vfs.Namespace, pt *policyTimes) vfs.Namespace {
		return &dropOneRemove{newTracedNS(ns, pt), &dropped}
	}
	w, _ := findWorkload("replay")
	res, err := b.run(w, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("the decorator never saw a removal; the input exercises nothing")
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a dropped purge went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.errs, "\n"), "results differ") {
		t.Fatalf("the traced-vs-untraced check did not fire: %v", res.errs)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	read := func(sub string, seed int64) []byte {
		p := filepath.Join(dir, sub)
		if err := generate(p, seed, testUsers); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(p, "snapshot.tsv.gz"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(read("a", 11), read("b", 11)) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(read("c", 11), read("d", 12)) {
		t.Fatal("different seeds generated the same inputs")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the printed metric
// and workload names in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(defs))
			return
		}
		for i, m := range defs {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "replay", "-seconds", "0"},
		{"-workload", "replay", "-trace", "2"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "sweep", "--seed", "4", "--seconds", "3", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || o.workload != "sweep" || o.seed != 4 || o.seconds != 3 || !o.trace {
		t.Fatalf("parseFlags: %+v, %v", o, err)
	}
}

// TestCalibratorChaseIsOneCycle checks that the pointer chase visits
// every slot before it returns to the start, so no run of the kernel
// can settle into a short, cache-resident loop.
func TestCalibratorChaseIsOneCycle(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	p := c.next[0]
	for i := 1; i < calibSlots; i++ {
		if p == 0 {
			t.Fatalf("chase returned to slot 0 after %d steps, want %d", i, calibSlots)
		}
		p = c.next[p]
	}
	if p != 0 {
		t.Fatalf("chase did not return to slot 0 after %d steps", calibSlots)
	}
	if d := c.run(); d <= 0 {
		t.Fatalf("kernel CPU time %v, want > 0", d)
	}
}
