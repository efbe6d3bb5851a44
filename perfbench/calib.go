package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// calibrator is a fixed piece of CPU work, independent of the program
// under test, timed between repetitions. On a shared host the same code
// runs slower when neighbours contend for the core's hyperthread
// sibling, the last-level cache or memory bandwidth; hypervisor steal is
// already left out of CPU time, this is not. Timing the fixed kernel
// next to each repetition measures that host speed so it can be divided
// out of the repetition's CPU time.
//
// The kernel's data lives outside the Go heap (one anonymous mapping),
// so it neither moves the program's garbage-collection pacing nor hides
// in its heap; its resident size is known and taken out of peak RSS.
type calibrator struct {
	mem   []byte
	next  []uint32 // one random cycle over all slots: a pointer chase
	table []uint64 // open-addressed hash table, half full
	keys  []uint64 // keys present in table, in insertion order
	tmpl  []uint64 // the sort's input
	buf   []uint64 // the sort's working copy
	sink  uint64
}

// Kernel sizes. The 16 MB chase is memory-latency bound like namespace
// walks and garbage-collection marking; the 8 MB table's probes and the
// 1 MB sort are cache-bound compute like ranking and candidate sorting.
// On a quiet 2.1 GHz Xeon vCPU the three parts take about 60, 20 and
// 12 ms.
const (
	calibSlots  = 4 << 20
	calibChase  = 1 << 19
	calibTable  = 1 << 20
	calibKeys   = calibTable / 2
	calibProbes = 1 << 20
	calibSort   = 1 << 17
	calibBytes  = 4*calibSlots + 8*(calibTable+calibKeys+2*calibSort)

	// calibRef is the kernel's CPU time that cpu_us_per_event is scaled
	// to: about its median (119 ms) over the 80 runs in steadiness.json on a
	// shared host of the kind above (89-147 ms per run).
	calibRef = 120 * time.Millisecond
)

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mem: mem}
	c.next = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibSlots)
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[4*calibSlots])), calibTable+calibKeys+2*calibSort)
	c.table, words = words[:calibTable], words[calibTable:]
	c.keys, words = words[:calibKeys], words[calibKeys:]
	c.tmpl, c.buf = words[:calibSort], words[calibSort:]

	rng := rand.New(rand.NewSource(1))
	// Sattolo's shuffle of the identity makes one cycle through every
	// slot, built in place so no temporary lands on the heap.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := calibSlots - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := range c.keys {
		k := rng.Uint64() | 1 // 0 marks an empty slot
		c.keys[i] = k
		for s := calibHash(k); ; s = (s + 1) & (calibTable - 1) {
			if c.table[s] == 0 {
				c.table[s] = k
				break
			}
		}
	}
	for i := range c.tmpl {
		c.tmpl[i] = rng.Uint64()
	}
	copy(c.buf, c.tmpl) // touch every page before the first timing
	return c, nil
}

// calibMB is the kernel's mapping, all of it touched and resident.
const calibMB = float64(calibBytes) / (1 << 20)

func (c *calibrator) close() error { return syscall.Munmap(c.mem) }

func calibHash(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> (64 - 20) }

// run executes the kernel once on a locked thread and returns its CPU
// time on that thread's clock.
func (c *calibrator) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	p := uint32(0)
	for i := 0; i < calibChase; i++ {
		p = c.next[p]
	}
	var found uint64
	for i := 0; i < calibProbes; i++ {
		k := c.keys[(i*7919)&(calibKeys-1)]
		for s := calibHash(k); ; s = (s + 1) & (calibTable - 1) {
			if c.table[s] == k {
				found += s
				break
			}
		}
	}
	copy(c.buf, c.tmpl)
	slices.Sort(c.buf)
	d := threadCPU() - c0
	c.sink += uint64(p) + found + c.buf[0]
	return d
}
