package synth

import (
	"reflect"
	"testing"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// small returns a compact config for fast tests.
func small(seed uint64) Config {
	return Config{Seed: seed, Users: 300}.Defaults()
}

func generate(t *testing.T, cfg Config) *trace.Dataset {
	t.Helper()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateProducesAllTraceKinds(t *testing.T) {
	cfg := small(1)
	d := generate(t, cfg)
	if len(d.Users) != cfg.Users {
		t.Fatalf("users = %d, want %d", len(d.Users), cfg.Users)
	}
	if len(d.Jobs) == 0 || len(d.Accesses) == 0 || len(d.Publications) == 0 || len(d.Snapshot.Entries) == 0 {
		t.Fatalf("missing record kinds: jobs=%d accesses=%d pubs=%d snap=%d",
			len(d.Jobs), len(d.Accesses), len(d.Publications), len(d.Snapshot.Entries))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid dataset: %v", err)
	}
	if d.Snapshot.Taken != cfg.SnapshotAt {
		t.Errorf("snapshot taken = %v", d.Snapshot.Taken)
	}
	if d.Snapshot.TotalBytes() <= 0 {
		t.Error("snapshot has no bytes")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, small(7))
	b := generate(t, small(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different datasets")
	}
	c := generate(t, small(8))
	if len(c.Jobs) == len(a.Jobs) && len(c.Accesses) == len(a.Accesses) &&
		len(c.Publications) == len(a.Publications) && len(c.Snapshot.Entries) == len(a.Snapshot.Entries) &&
		reflect.DeepEqual(a.Jobs, c.Jobs) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestArchetypeMixRoughlyHonored(t *testing.T) {
	cfg := Config{Seed: 3, Users: 3000}.Defaults()
	d := generate(t, cfg)
	counts := map[string]int{}
	for _, u := range d.Users {
		counts[u.Archetype]++
	}
	if counts["dormant"] < 2000 {
		t.Errorf("dormant = %d, want ≳ 2300", counts["dormant"])
	}
	for _, a := range []string{"power", "operator", "scholar", "intermittent", "toucher"} {
		if counts[a] == 0 {
			t.Errorf("archetype %s absent", a)
		}
	}
}

func TestSnapshotPreFilter(t *testing.T) {
	cfg := small(5)
	d := generate(t, cfg)
	for _, e := range d.Snapshot.Entries {
		if age := cfg.SnapshotAt.Sub(e.ATime); age > cfg.PreFilterLifetime {
			t.Fatalf("entry %q idle %v at snapshot, beyond the %v pre-filter",
				e.Path, age, cfg.PreFilterLifetime)
		}
		if e.ATime > cfg.SnapshotAt {
			t.Fatalf("entry %q atime after snapshot", e.Path)
		}
	}
	// Without the filter, older files appear.
	cfg2 := small(5)
	cfg2.PreFilterLifetime = -1 // sentinel: Defaults would overwrite 0
	cfg2.PreFilterLifetime = timeutil.Days(100000)
	d2 := generate(t, cfg2)
	if len(d2.Snapshot.Entries) <= len(d.Snapshot.Entries) {
		t.Errorf("unfiltered snapshot (%d) not larger than filtered (%d)",
			len(d2.Snapshot.Entries), len(d.Snapshot.Entries))
	}
}

func TestAccessLogWindow(t *testing.T) {
	cfg := small(6)
	d := generate(t, cfg)
	for i := range d.Accesses {
		a := &d.Accesses[i]
		if a.TS < cfg.SnapshotAt || a.TS >= cfg.End {
			t.Fatalf("access %d at %v outside replay window [%v, %v)", i, a.TS, cfg.SnapshotAt, cfg.End)
		}
		if a.Size <= 0 {
			t.Fatalf("access %d has non-positive size", i)
		}
	}
}

func TestJobsPlausible(t *testing.T) {
	cfg := small(9)
	d := generate(t, cfg)
	for i := range d.Jobs {
		j := &d.Jobs[i]
		if j.Submit < cfg.Start || j.Submit >= cfg.End {
			t.Fatalf("job %d submit %v out of range", i, j.Submit)
		}
		if j.Cores <= 0 || j.Cores > 1<<20 {
			t.Fatalf("job %d cores = %d", i, j.Cores)
		}
		if j.Duration <= 0 || j.Duration > timeutil.Days(7) {
			t.Fatalf("job %d duration = %v", i, j.Duration)
		}
	}
}

func TestPublicationsPlausible(t *testing.T) {
	d := generate(t, small(10))
	for i := range d.Publications {
		p := &d.Publications[i]
		if p.Citations < 0 || p.Citations > 500 {
			t.Fatalf("pub %d citations = %d", i, p.Citations)
		}
		if len(p.Authors) == 0 || len(p.Authors) > 8 {
			t.Fatalf("pub %d authors = %d", i, len(p.Authors))
		}
		seen := map[trace.UserID]bool{}
		for _, a := range p.Authors {
			if seen[a] {
				t.Fatalf("pub %d has duplicate author", i)
			}
			seen[a] = true
		}
	}
}

// TestActivenessMatrixShape checks the headline Figure-5 property on
// synthetic data: the overwhelming majority of users are
// both-inactive, but every quadrant is populated at a 90-day period.
func TestActivenessMatrixShape(t *testing.T) {
	cfg := Config{Seed: 11, Users: 2000}.Defaults()
	d := generate(t, cfg)
	ev := activeness.NewEvaluator(timeutil.Days(90))
	jt := ev.AddType("job-submission", activeness.Operation)
	pt := ev.AddType("publication", activeness.Outcome)
	ev.RecordJobs(jt, d.Jobs)
	ev.RecordPublications(pt, d.Publications)
	tc := timeutil.Date(2016, time.August, 23)
	ranks := ev.EvaluateAll(len(d.Users), tc)
	m := activeness.NewMatrix(ranks)
	t.Logf("matrix @90d: BA=%.2f%% OpOnly=%.2f%% OcOnly=%.2f%% BI=%.2f%%",
		100*m.Share(activeness.BothActive), 100*m.Share(activeness.OperationActiveOnly),
		100*m.Share(activeness.OutcomeActiveOnly), 100*m.Share(activeness.BothInactive))
	if m.Share(activeness.BothInactive) < 0.70 {
		t.Errorf("both-inactive share = %v, want ≥ 0.70 (paper: 0.93)", m.Share(activeness.BothInactive))
	}
	for _, g := range activeness.Groups() {
		if m.Counts[g] == 0 {
			t.Errorf("group %v empty", g)
		}
	}
	if m.Share(activeness.BothActive) > 0.10 {
		t.Errorf("both-active share %v implausibly high", m.Share(activeness.BothActive))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Users: -1},
		{Users: 10, Start: 100, SnapshotAt: 50, End: 200},
		{Users: 10, Start: 100, SnapshotAt: 150, End: 120},
	}
	for i, cfg := range bad {
		c := cfg
		// Fill remaining zero fields but keep the bad ones.
		if c.Users == 0 {
			c.Users = 10
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	var mix [numArchetypes]float64
	mix[Power] = -1
	if _, err := Generate(Config{Users: 10, Mix: mix}); err == nil {
		t.Error("negative mix accepted")
	}
}

func TestArchetypeStrings(t *testing.T) {
	for a := Power; a < numArchetypes; a++ {
		if a.String() == "" {
			t.Errorf("archetype %d has empty name", a)
		}
	}
}

func TestExtraActivityTraces(t *testing.T) {
	cfg := small(12)
	d := generate(t, cfg)
	if len(d.Logins) == 0 {
		t.Fatal("no logins generated")
	}
	if len(d.Transfers) == 0 {
		t.Fatal("no transfers generated")
	}
	for i := 1; i < len(d.Logins); i++ {
		if d.Logins[i].TS < d.Logins[i-1].TS {
			t.Fatal("logins unsorted")
		}
	}
	for i := range d.Transfers {
		x := &d.Transfers[i]
		if x.Bytes <= 0 {
			t.Fatalf("transfer %d has non-positive bytes", i)
		}
		if x.TS < cfg.Start || x.TS >= cfg.End {
			t.Fatalf("transfer %d outside trace window", i)
		}
	}
	// Transfers come only from the archetypes that stage data.
	byArch := map[string]bool{}
	for i := range d.Transfers {
		byArch[d.Users[d.Transfers[i].User].Archetype] = true
	}
	for arch := range byArch {
		if arch != "intermittent" && arch != "power" {
			t.Errorf("unexpected transfer archetype %q", arch)
		}
	}
}

// TestGenerateFewAcademicsTerminates: a dataset with fewer academics
// (power users and scholars) than a publication's drawn author count
// once spun forever looking for distinct co-authors. 60 users under
// this seed is such a dataset.
func TestGenerateFewAcademicsTerminates(t *testing.T) {
	golden := uint64(0x9e3779b97f4a7c15)
	cfg := Config{Seed: 2*golden + 1, Users: 60} // wraps, as a seed spread by the golden ratio does
	done := make(chan *trace.Dataset, 1)
	go func() {
		d, err := Generate(cfg)
		if err != nil {
			t.Error(err)
		}
		done <- d
	}()
	var d *trace.Dataset
	select {
	case d = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Generate did not return within 10s")
	}
	if d == nil {
		return
	}
	for _, p := range d.Publications {
		seen := make(map[trace.UserID]bool)
		for _, a := range p.Authors {
			if seen[a] {
				t.Fatalf("publication at %v lists author %d twice", p.TS, a)
			}
			seen[a] = true
		}
	}
}
