package vfs

import (
	"fmt"
	"unsafe"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// LaneGroup multiplexes up to 64 policy lanes over ONE shared prefix
// tree and ONE shared candidate index (DESIGN.md §13). Every lane
// replays the same access stream, so the expensive per-event work —
// tree descent, atime update, index maintenance — is done once, and a
// lane holds only its divergence from the shared state:
//
//   - fileRecord.dropped is an inverted hold mask: bit i set means
//     lane i purged the file. A fresh clone needs no initialization
//     (0 = everyone holds), and the record is deleted from the tree
//     when the last holder drops it.
//   - a lane that re-inserts a purged file on a miss whose metadata
//     differs from the shared record keeps a FileMeta override
//     (User/Size/Stripes only — the ATime of a held file is always
//     the shared record's, because every lane applies every touch).
//   - per-lane byte/file accounting maps back the unchanged
//     Users/UserBytes/UserFiles/TotalBytes surface.
//
// Lane views are *FS values, so retention policies run against them
// through the existing selection contract, unmodified. Lanes are
// mutated only via ApplyRun and Remove; Touch and Insert panic.
type LaneGroup struct {
	lanes   []*FS
	allMask uint64
	tree    *radix[fileRecord]
	index   map[trace.UserID]*userIndex
	// handles caches columnar path-id → terminal node, skipping the
	// tree descent for re-touched paths. Entries are invalidated via
	// fileRecord.pid1 when the record is deleted, and re-validated
	// against the record's interned path on use.
	handles []*rnode[fileRecord]
	// byPtr maps every live record's interned path — keyed by the
	// path string's data pointer, not its content — to its terminal
	// node. Purge removals and stale-scan validations always present
	// the record's own path string (candidate paths are aliases of
	// rec.path by construction), so an identity key buys the lookup
	// while hashing 8 bytes instead of the whole path. The map is a
	// cache, not the source of truth: a lookup whose caller holds an
	// equal-content string with different backing misses and falls
	// back to a tree descent, preserving content semantics exactly.
	byPtr map[*byte]*rnode[fileRecord]
}

// pathKey is the identity key of an interned path string.
func pathKey(s string) *byte { return unsafe.StringData(s) }

// RunEvent is one access applied by ApplyRun: a touch or create of a
// single path, in stream order.
type RunEvent struct {
	User   trace.UserID
	Size   int64
	TS     timeutil.Time
	Create bool
}

// NewLaneGroup clones base once and returns a group of n lane views
// over the copy. pathCap sizes the path-id handle table (the columnar
// feed's interned path count); it grows on demand if exceeded.
func NewLaneGroup(base *FS, n, pathCap int) (*LaneGroup, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("vfs: lane count %d out of range [1,64]", n)
	}
	if base.group != nil {
		return nil, fmt.Errorf("vfs: cannot build a lane group over a lane view")
	}
	if pathCap < 0 {
		pathCap = 0
	}
	g := &LaneGroup{
		lanes:   make([]*FS, n),
		tree:    base.tree.clone(),
		index:   cloneIndex(base.index),
		handles: make([]*rnode[fileRecord], pathCap),
	}
	g.byPtr = make(map[*byte]*rnode[fileRecord], base.tree.size())
	var fill func(n *rnode[fileRecord])
	fill = func(n *rnode[fileRecord]) {
		if n.terminal {
			g.byPtr[pathKey(n.value.path)] = n
		}
		for _, c := range n.children {
			fill(c)
		}
	}
	fill(g.tree.root)
	if n == 64 {
		g.allMask = ^uint64(0)
	} else {
		g.allMask = uint64(1)<<uint(n) - 1
	}
	files := int64(base.tree.size())
	// Lane accounting is dense by UserID (trace loaders assign dense
	// non-negative ids); size every lane to the base population once.
	maxU := trace.UserID(-1)
	for u := range base.userFiles {
		if u > maxU {
			maxU = u
		}
	}
	for i := range g.lanes {
		lf := &FS{
			tree:      g.tree,
			bytes:     base.bytes,
			dBytes:    make([]int64, maxU+1),
			dFiles:    make([]int64, maxU+1),
			index:     g.index,
			group:     g,
			laneBit:   uint64(1) << uint(i),
			laneFiles: files,
		}
		for u, b := range base.userBytes {
			lf.dBytes[u] = b
		}
		for u, c := range base.userFiles {
			lf.dFiles[u] = c
		}
		g.lanes[i] = lf
	}
	return g, nil
}

// Lanes returns the lane count.
func (g *LaneGroup) Lanes() int { return len(g.lanes) }

// Lane returns lane i's FS view.
func (g *LaneGroup) Lane(i int) *FS { return g.lanes[i] }

// laneMeta resolves the metadata lane f sees for a held record.
func (f *FS) laneMeta(rec *fileRecord) FileMeta {
	m := rec.meta
	if rec.ovr&f.laneBit != 0 {
		if o, ok := f.overrides[rec.path]; ok {
			m.User, m.Size, m.Stripes = o.User, o.Size, o.Stripes
		}
	}
	return m
}

// acctAdd and acctSub maintain a lane's dense per-user accounting.
// Only lane views call them; private FS values account through their
// maps in Insert/Remove.
func (f *FS) acctAdd(m FileMeta) {
	f.bytes += m.Size
	if int(m.User) >= len(f.dBytes) {
		f.acctGrow(m.User)
	}
	f.dBytes[m.User] += m.Size
	f.dFiles[m.User]++
}

func (f *FS) acctSub(m FileMeta) {
	// No grow: a removal is always preceded by the add that grew the
	// slices past m.User.
	f.bytes -= m.Size
	f.dBytes[m.User] -= m.Size
	f.dFiles[m.User]--
}

// acctGrow extends the dense accounting to cover user u, for events
// that introduce a user unseen at group creation.
func (f *FS) acctGrow(u trace.UserID) {
	nb := make([]int64, int(u)+1)
	copy(nb, f.dBytes)
	f.dBytes = nb
	nf := make([]int64, int(u)+1)
	copy(nf, f.dFiles)
	f.dFiles = nf
}

// laneResolve finds the live node for path: identity probe on the
// interned-path map first, content lookup as the fallback.
func (f *FS) laneResolve(path string) *rnode[fileRecord] {
	if n := f.group.byPtr[pathKey(path)]; n != nil {
		return n
	}
	// Equal content under different backing (or a genuinely absent
	// path): resolve by content.
	return f.group.tree.findNode(path)
}

// laneRemoveNode drops this lane's copy of the file at n (resolved
// from path). The shared record stays for the remaining holders and
// is deleted with the last one.
func (f *FS) laneRemoveNode(n *rnode[fileRecord], path string) (FileMeta, bool) {
	g := f.group
	if n == nil || !n.terminal {
		return FileMeta{}, false
	}
	rec := &n.value
	if rec.dropped&f.laneBit != 0 {
		return FileMeta{}, false
	}
	m := f.laneMeta(rec)
	f.acctSub(m)
	f.laneFiles--
	if rec.ovr&f.laneBit != 0 {
		delete(f.overrides, rec.path)
		rec.ovr &^= f.laneBit
	}
	rec.dropped |= f.laneBit
	if f.dirty != nil {
		f.dirty[rec.path] = nil
	}
	f.probe.Removes.Inc()
	if rec.dropped == g.allMask {
		if rec.pid1 > 0 && int(rec.pid1) <= len(g.handles) {
			g.handles[rec.pid1-1] = nil
		}
		delete(g.byPtr, pathKey(rec.path))
		g.tree.delete(path)
	}
	return m, true
}

// ApplyRun applies one (day, path) run of events to every lane at
// once: the tree descent, shared atime updates and candidate-index
// maintenance happen once, while per-lane effects reduce to bit
// operations, probe counters and (rarely) override bookkeeping.
// missMask reports which lanes missed (did not hold the file at the
// run's first non-create event) and re-inserted it. pid is the
// caller's interned id for path, keying the node handle cache.
//
// Within a run, an event after the first can never miss: a miss or a
// create re-materializes the file for every lane, and lane removals
// only happen at purge triggers, which are batch boundaries.
func (g *LaneGroup) ApplyRun(pid int32, path string, evs []RunEvent) (missMask uint64) {
	if len(evs) == 0 {
		return 0
	}
	if int(pid) >= len(g.handles) {
		grown := make([]*rnode[fileRecord], int(pid)+1)
		copy(grown, g.handles)
		g.handles = grown
	}
	var n *rnode[fileRecord]
	if h := g.handles[pid]; h != nil && h.terminal && h.value.path == path {
		n = h
	} else if n = g.byPtr[pathKey(path)]; n == nil {
		// A pre-existing file's first touch presents the feed-interned
		// path, whose backing differs from the snapshot-interned
		// rec.path: one descent resolves it, and the handle table
		// carries it from here.
		n = g.tree.findNode(path)
		if n != nil && !n.terminal {
			// An inner node: path is only a prefix of stored paths
			// (a split edge, or a file every lane purged), so no
			// lane holds it.
			n = nil
		}
	}
	lanes := g.lanes

	// Fast path: every lane holds the file with shared metadata and
	// the run creates nothing — a pure touch for all lanes.
	if n != nil && n.value.dropped == 0 && n.value.ovr == 0 {
		pure := true
		for i := range evs {
			if evs[i].Create {
				pure = false
				break
			}
		}
		if pure {
			rec := &n.value
			last := evs[len(evs)-1].TS
			for _, lf := range lanes {
				lf.probe.Touches.Add(int64(len(evs)))
				if lf.dirty != nil {
					lf.dirty[rec.path] = nil
				}
			}
			if last != rec.meta.ATime {
				rec.meta.ATime = last
				lanes[0].indexAdd(rec.meta.User, rec.path, last, n)
			}
			rec.pid1 = pid + 1
			g.handles[pid] = n
			return 0
		}
	}

	existed0 := n != nil
	var owner0 trace.UserID
	var atime0 timeutil.Time
	if existed0 {
		owner0, atime0 = n.value.meta.User, n.value.meta.ATime
	}
	var newOvr uint64
	for ei := range evs {
		ev := &evs[ei]
		m := FileMeta{User: ev.User, Size: ev.Size, Stripes: 1, ATime: ev.TS}
		switch {
		case ev.Create:
			if n == nil {
				n, _, _ = g.tree.put(path, fileRecord{meta: m, path: path})
				g.byPtr[pathKey(n.value.path)] = n
				for _, lf := range lanes {
					lf.acctAdd(m)
					lf.laneFiles++
					lf.probe.Inserts.Inc()
				}
			} else {
				rec := &n.value
				for _, lf := range lanes {
					if rec.dropped&lf.laneBit == 0 {
						lf.acctSub(lf.laneMeta(rec))
					} else {
						lf.laneFiles++
					}
					lf.acctAdd(m)
					lf.probe.Inserts.Inc()
				}
				if rec.ovr != 0 {
					for _, lf := range lanes {
						if rec.ovr&lf.laneBit != 0 {
							delete(lf.overrides, rec.path)
						}
					}
					rec.ovr = 0
					newOvr = 0
				}
				rec.dropped = 0
				rec.meta = m
			}
		case ei == 0:
			if n == nil {
				// No lane holds the file: everyone misses.
				missMask = g.allMask
				n, _, _ = g.tree.put(path, fileRecord{meta: m, path: path})
				g.byPtr[pathKey(n.value.path)] = n
				for _, lf := range lanes {
					lf.probe.TouchMisses.Inc()
					lf.probe.Inserts.Inc()
					lf.acctAdd(m)
					lf.laneFiles++
				}
			} else {
				rec := &n.value
				for _, lf := range lanes {
					if rec.dropped&lf.laneBit == 0 {
						lf.probe.Touches.Inc()
						continue
					}
					// This lane purged the file: miss + re-insert
					// with the event's metadata, diverging from the
					// shared record when they differ.
					missMask |= lf.laneBit
					rec.dropped &^= lf.laneBit
					lf.probe.TouchMisses.Inc()
					lf.probe.Inserts.Inc()
					lf.acctAdd(m)
					lf.laneFiles++
					if m.User != rec.meta.User || m.Size != rec.meta.Size || rec.meta.Stripes != 1 {
						if lf.overrides == nil {
							lf.overrides = make(map[string]FileMeta)
						}
						lf.overrides[rec.path] = m
						rec.ovr |= lf.laneBit
						newOvr |= lf.laneBit
					}
				}
				rec.meta.ATime = ev.TS
			}
		default:
			for _, lf := range lanes {
				lf.probe.Touches.Inc()
			}
			n.value.meta.ATime = ev.TS
		}
	}
	rec := &n.value
	atimeChanged := !existed0 || rec.meta.ATime != atime0
	if atimeChanged || rec.meta.User != owner0 {
		lanes[0].indexAdd(rec.meta.User, rec.path, rec.meta.ATime, n)
	}
	if rec.ovr != 0 {
		for _, lf := range lanes {
			if rec.ovr&lf.laneBit == 0 {
				continue
			}
			if !atimeChanged && newOvr&lf.laneBit == 0 {
				continue // the existing override entry is still live
			}
			if o := lf.overrides[rec.path]; o.User != rec.meta.User {
				if lf.extra == nil {
					lf.extra = make(map[trace.UserID]*userIndex)
				}
				indexAddTo(lf.extra, o.User, rec.path, rec.meta.ATime, n)
			}
		}
	}
	rec.pid1 = pid + 1
	g.handles[pid] = n
	for _, lf := range lanes {
		if lf.dirty != nil {
			lf.dirty[rec.path] = nil
		}
	}
	return missMask
}
