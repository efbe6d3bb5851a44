package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/obs"
	"activedr/internal/synth"
	"activedr/internal/trace"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = accepted
	}{
		{"defaults", nil, ""},
		{"full observability", []string{"-metrics-out", "m.json", "-events-out", "e.jsonl", "-audit-sample", "0.5"}, ""},
		{"checkpointed resume", []string{"-checkpoint-dir", "ck", "-checkpoint-every", "4", "-resume"}, ""},
		{"delta checkpoints", []string{"-checkpoint-dir", "ck", "-checkpoint-full-every", "4"}, ""},
		{"boundary sample values", []string{"-events-out", "e", "-audit-sample", "1"}, ""},
		{"target at one", []string{"-target", "1"}, ""},
		{"multiplex", []string{"-multiplex"}, ""},
		{"multiplex with checkpoints", []string{"-multiplex", "-checkpoint-dir", "ck"}, ""},

		{"zero lifetime", []string{"-lifetime", "0"}, "-lifetime must be >= 1"},
		{"negative lifetime", []string{"-lifetime", "-90"}, "-lifetime must be >= 1"},
		{"zero interval", []string{"-interval", "0"}, "-interval must be >= 1"},
		{"negative interval", []string{"-interval", "-7"}, "-interval must be >= 1"},
		{"zero target", []string{"-target", "0"}, "-target must be in (0,1]"},
		{"target above one", []string{"-target", "1.5"}, "-target must be in (0,1]"},
		{"NaN target", []string{"-target", "NaN"}, "-target must be in (0,1]"},
		{"zero max errors", []string{"-max-errors", "0"}, "-max-errors must be >= 1"},
		{"fault prob above one", []string{"-faults", "1.2"}, "-faults probability must be in [0,1]"},
		{"negative fault prob", []string{"-faults", "-0.1"}, "-faults probability must be in [0,1]"},
		{"read prob above one", []string{"-fault-read", "2"}, "-fault-read probability must be in [0,1]"},
		{"negative fault clear", []string{"-fault-clear", "-1"}, "-fault-clear must be >= 0"},
		{"zero checkpoint every", []string{"-checkpoint-every", "0"}, "-checkpoint-every must be >= 1"},
		{"zero checkpoint full every", []string{"-checkpoint-full-every", "0"}, "-checkpoint-full-every must be >= 1"},
		{"resume without dir", []string{"-resume"}, "-resume requires -checkpoint-dir"},
		{"kill with checkpoints", []string{"-checkpoint-dir", "ck", "-fault-kill", "sim.checkpoint.published:2"}, ""},
		{"kill without dir", []string{"-fault-kill", "sim.checkpoint.published:2"}, "-fault-kill requires -checkpoint-dir"},
		{"malformed kill spec", []string{"-checkpoint-dir", "ck", "-fault-kill", "nohit"}, "-fault-kill:"},
		{"zero-hit kill spec", []string{"-checkpoint-dir", "ck", "-fault-kill", "x:0"}, "-fault-kill:"},
		{"sample above one", []string{"-events-out", "e", "-audit-sample", "1.01"}, "-audit-sample must be in [0,1]"},
		{"negative sample", []string{"-events-out", "e", "-audit-sample", "-0.2"}, "-audit-sample must be in [0,1]"},
		{"NaN sample", []string{"-events-out", "e", "-audit-sample", "NaN"}, "-audit-sample must be in [0,1]"},
		{"sample without events", []string{"-audit-sample", "0.5"}, "-audit-sample requires -events-out"},
		{"multiplex resume", []string{"-multiplex", "-checkpoint-dir", "ck", "-resume"}, "-resume is not supported with -multiplex"},
		{"multiplex kill", []string{"-multiplex", "-checkpoint-dir", "ck", "-fault-kill", "sim.checkpoint.published:2"}, "-fault-kill is not supported with -multiplex"},
		{"snapfile in and out differ", []string{"-vfs-snapshot", "a.snap", "-vfs-snapshot-out", "b.snap"}, ""},
		{"snapfile out only", []string{"-vfs-snapshot-out", "a.snap"}, ""},
		{"snapfile in equals out", []string{"-vfs-snapshot", "a.snap", "-vfs-snapshot-out", "a.snap"}, "name the same file"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"retired shards flag", []string{"-shards", "4"}, "flag provided but not defined: -shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if o == nil {
					t.Fatal("no options returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunEmitsObservability drives the whole tool end to end on a
// small synthetic dataset and checks the -metrics-out and -events-out
// artifacts: valid JSON with both policies' registries, and a JSONL
// stream the obs decoder can replay with per-trigger, per-miss, and
// sampled audit records for both policies.
func TestRunEmitsObservability(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 5, Users: 60})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := trace.WriteDataset(data, ds); err != nil {
		t.Fatal(err)
	}

	o := &options{
		data:        data,
		lifetime:    90,
		interval:    7,
		target:      0.5,
		maxErrors:   trace.DefaultMaxErrors,
		ckptEvery:   1,
		faultProb:   0.1,
		faultSeed:   11,
		metricsOut:  filepath.Join(dir, "metrics.json"),
		eventsOut:   filepath.Join(dir, "events.jsonl"),
		auditSample: 1,
	}
	var console strings.Builder
	if err := run(o, &console); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var perPolicy []policyMetrics
	if err := json.Unmarshal(blob, &perPolicy); err != nil {
		t.Fatal(err)
	}
	if len(perPolicy) != 2 {
		t.Fatalf("metrics for %d policies, want 2", len(perPolicy))
	}
	for _, pm := range perPolicy {
		counters := map[string]int64{}
		for _, c := range pm.Metrics.Counters {
			counters[c.Name] = c.Value
		}
		if counters[obs.MetricAccesses] == 0 {
			t.Errorf("%s: no accesses counted", pm.Policy)
		}
		if counters[obs.MetricTriggers] == 0 {
			t.Errorf("%s: no triggers counted", pm.Policy)
		}
		if len(pm.Phases) == 0 {
			t.Errorf("%s: no phase times recorded", pm.Policy)
		}
	}

	ef, err := os.Open(o.eventsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	triggers := map[string]int64{}
	var audits int64
	d := obs.NewDecoder(ef)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev := ev.(type) {
		case *obs.TriggerEvent:
			triggers[ev.Policy]++
		case *obs.AuditEvent:
			audits++
		}
	}
	if len(triggers) != 2 {
		t.Fatalf("trigger events per policy = %v, want both policies present", triggers)
	}
	for pol, n := range triggers {
		if n == 0 {
			t.Fatalf("policy %s emitted no trigger events", pol)
		}
	}
	if audits == 0 {
		t.Fatal("no audit events at -audit-sample 1")
	}
	if !strings.Contains(console.String(), "telemetry events") {
		t.Fatalf("console output %q does not mention the event stream", console.String())
	}
}

// stripWall drops the volatile wall-clock suffixes so two runs'
// console transcripts can be compared for replay-content equality.
func stripWall(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, ", wall="); i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestRunMultiplexMatchesSequential drives the tool end to end both
// ways — two dedicated replays vs one -multiplex pass, with fault
// injection on — and requires identical console transcripts modulo
// wall-clock times: same misses, same per-group reductions, same
// fault summaries.
func TestRunMultiplexMatchesSequential(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 5, Users: 60})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := trace.WriteDataset(data, ds); err != nil {
		t.Fatal(err)
	}
	runWith := func(multiplex bool) string {
		o := &options{
			data:      data,
			lifetime:  90,
			interval:  7,
			target:    0.5,
			maxErrors: trace.DefaultMaxErrors,
			ckptEvery: 1,
			faultProb: 0.1,
			faultSeed: 11,
			multiplex: multiplex,
		}
		var console strings.Builder
		if err := run(o, &console); err != nil {
			t.Fatal(err)
		}
		return stripWall(console.String())
	}
	seq, mux := runWith(false), runWith(true)
	if seq != mux {
		t.Fatalf("multiplexed transcript diverges from sequential:\n--- sequential\n%s\n--- multiplexed\n%s", seq, mux)
	}
}

// TestSnapshotSourcePrecedence pins the -vfs-snapshot vs snapshot-TSV
// precedence: when both sources are present the snapfile wins, and the
// tool must say so on the console instead of silently skipping the TSV
// (the old behavior). When the dataset has no snapshot TSV there is no
// conflict and no warning.
func TestSnapshotSourcePrecedence(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 5, Users: 40})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := trace.WriteDataset(data, ds); err != nil {
		t.Fatal(err)
	}
	base := func() *options {
		return &options{
			data:      data,
			lifetime:  90,
			interval:  7,
			target:    0.5,
			maxErrors: trace.DefaultMaxErrors,
			ckptEvery: 1,
			faultSeed: 1,
		}
	}

	// First run: write the snapfile from the TSV snapshot.
	snap := filepath.Join(dir, "fs.snap")
	o := base()
	o.vfsSnapOut = snap
	var console strings.Builder
	if err := run(o, &console); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(console.String(), "warning:") {
		t.Fatalf("snapfile-write run warned without a conflict:\n%s", console.String())
	}

	// Both sources present: the snapfile must win, loudly.
	o = base()
	o.vfsSnap = snap
	console.Reset()
	if err := run(o, &console); err != nil {
		t.Fatal(err)
	}
	got := console.String()
	if !strings.Contains(got, "warning:") || !strings.Contains(got, "overrides the dataset snapshot") {
		t.Fatalf("no precedence warning with both sources present:\n%s", got)
	}
	if !strings.Contains(got, "opened snapfile") {
		t.Fatalf("snapfile was not the namespace source:\n%s", got)
	}

	// Snapfile only (TSV removed): same replay, no warning.
	if err := os.Remove(filepath.Join(data, trace.SnapshotFile)); err != nil {
		t.Fatal(err)
	}
	o = base()
	o.vfsSnap = snap
	console.Reset()
	if err := run(o, &console); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(console.String(), "warning:") {
		t.Fatalf("warned with no snapshot TSV present:\n%s", console.String())
	}
}
