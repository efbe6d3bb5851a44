package main

import (
	"time"

	"activedr/internal/activeness"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// policyTimes accumulates what the traced decorators measure around
// one replay's retention calls.
type policyTimes struct {
	rank, purge     time.Duration
	rankCalls       int64
	sel, remove     time.Duration
	selCalls, cands int64
	removes         int64
}

// tracedPolicy wraps a retention.Policy. It times each Purge call and
// the ranking gap before it: the driver sets mark at the entry of an
// Apply call that will fire a trigger, and the time from there (or
// from the previous Purge's exit, when one Apply fires several
// triggers) to Purge's entry is the stream's activeness ranking.
// The window holds no capture clone: with Config.CaptureAt at 0, as
// in paperConfig, a Stream starts out captured and its triggers never
// clone the namespace. Nor a snapshot or checkpoint: SnapshotEvery is
// 0 and the replay passes no CheckpointDir.
type tracedPolicy struct {
	inner retention.Policy
	t     *policyTimes
	mark  time.Time
	// wrap builds the namespace view the inner policy purges through.
	wrap func(vfs.Namespace, *policyTimes) vfs.Namespace
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Purge(fsys vfs.Namespace, ranks []activeness.Rank, tc timeutil.Time) *retention.Report {
	start := time.Now()
	if !p.mark.IsZero() {
		p.t.rank += start.Sub(p.mark)
		p.t.rankCalls++
	}
	rep := p.inner.Purge(p.wrap(fsys, p.t), ranks, tc)
	end := time.Now()
	p.t.purge += end.Sub(start)
	p.mark = end
	return rep
}

// SetProbe forwards the observer's purge probe, so the obs counters
// still see every decision through the decorator.
func (p *tracedPolicy) SetProbe(pr *obs.PurgeProbe) {
	if s, ok := p.inner.(retention.ProbeSink); ok {
		s.SetProbe(pr)
	}
}

// tracedNS wraps the namespace a policy purges through and times the
// candidate selection and removal calls; every other method passes
// straight through.
type tracedNS struct {
	vfs.Namespace
	t *policyTimes
}

func newTracedNS(ns vfs.Namespace, t *policyTimes) vfs.Namespace { return &tracedNS{ns, t} }

func (n *tracedNS) AppendStaleFiles(dst []vfs.Candidate, u trace.UserID, cutoff timeutil.Time) []vfs.Candidate {
	start, k := time.Now(), len(dst)
	dst = n.Namespace.AppendStaleFiles(dst, u, cutoff)
	n.t.sel += time.Since(start)
	n.t.selCalls++
	n.t.cands += int64(len(dst) - k)
	return dst
}

func (n *tracedNS) StaleFiles(u trace.UserID, cutoff timeutil.Time) []vfs.Candidate {
	start := time.Now()
	out := n.Namespace.StaleFiles(u, cutoff)
	n.t.sel += time.Since(start)
	n.t.selCalls++
	n.t.cands += int64(len(out))
	return out
}

func (n *tracedNS) RemoveCandidate(c vfs.Candidate) (vfs.FileMeta, bool) {
	start := time.Now()
	m, ok := n.Namespace.RemoveCandidate(c)
	n.t.remove += time.Since(start)
	n.t.removes++
	return m, ok
}

func (n *tracedNS) Remove(path string) (vfs.FileMeta, bool) {
	start := time.Now()
	m, ok := n.Namespace.Remove(path)
	n.t.remove += time.Since(start)
	n.t.removes++
	return m, ok
}
