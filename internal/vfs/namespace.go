package vfs

import (
	"activedr/internal/obs"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// Namespace is the virtual-file-system surface the replay emulator and
// the retention policies program against. *FS, the compact prefix
// tree, is the one implementation; the interface exists so a caller
// can decorate it (wrap a tree to time or audit the calls a policy
// makes) without the policies knowing. A decorator must honor every
// contract the *FS documentation states — in particular the
// lexicographic "system order" of Walk/WalkPrefix/Snapshot and the
// (ATime, Path) ascending order of StaleFiles — so reports and
// checkpoints stay bit-identical through it.
type Namespace interface {
	Insert(path string, m FileMeta) error
	Lookup(path string) (FileMeta, bool)
	Contains(path string) bool
	Touch(path string, at timeutil.Time) bool
	Remove(path string) (FileMeta, bool)
	RemoveCandidate(c Candidate) (FileMeta, bool)
	Users() []trace.UserID
	StaleFiles(u trace.UserID, cutoff timeutil.Time) []Candidate
	AppendStaleFiles(dst []Candidate, u trace.UserID, cutoff timeutil.Time) []Candidate
	Count() int
	TotalBytes() int64
	UserBytes(u trace.UserID) int64
	UserFiles(u trace.UserID) int64
	Walk(fn func(path string, m FileMeta) bool)
	WalkPrefix(prefix string, fn func(path string, m FileMeta) bool)
	Snapshot(taken timeutil.Time) *trace.Snapshot
	// CloneNS deep-copies the namespace for an independent replay or a
	// planner dry run.
	CloneNS() Namespace
	SetProbe(p obs.VFSProbe)
	TrackDirty()
	AppendDirty(dst []DirtyEntry) []DirtyEntry
	ResetDirty()
}

// CloneNS implements Namespace for *FS callers that only know the
// interface; internal callers keep the concretely-typed Clone.
func (f *FS) CloneNS() Namespace { return f.Clone() }

var _ Namespace = (*FS)(nil)
