package debug

import (
	"fmt"
	"sort"
)

// WatchHit records one store into a watched region.
type WatchHit struct {
	Seq   uint64 // retirement sequence number at hit time
	Cycle uint64
	PC    uint64 // instruction whose store touched the region
	Addr  uint64 // store address
	Size  int    // store width in bytes
}

// watchRegion is one armed watchpoint.
type watchRegion struct {
	name       string
	start, end uint64 // [start, end)
}

// Watchpoints observe memory writes through the Memory.OnWrite hook —
// the analyst's "who smashed my return address?" tool: arm a watch on
// the saved-return-address slot and the overflow is caught at the exact
// store, with the offending PC in hand.
//
// Attach installs the hook; the debugger must own Memory.OnWrite (it
// chains nothing).
func (d *Debugger) WatchWrites(name string, start, size uint64) {
	d.watches = append(d.watches, watchRegion{name: name, start: start, end: start + size})
	if d.cpu.Mem.OnWrite == nil {
		d.cpu.Mem.OnWrite = d.onWrite
	}
}

// ClearWatches disarms every watchpoint.
func (d *Debugger) ClearWatches() {
	d.watches = nil
	d.cpu.Mem.OnWrite = nil
}

// WatchHits returns the recorded hits in order.
func (d *Debugger) WatchHits() []WatchHit {
	return append([]WatchHit(nil), d.watchHits...)
}

// WatchHitNames returns, per hit index, which watch region was touched.
func (d *Debugger) WatchHitNames() []string {
	return append([]string(nil), d.watchNames...)
}

func (d *Debugger) onWrite(addr uint64, n int) {
	end := addr + uint64(n)
	for _, w := range d.watches {
		if addr < w.end && end > w.start {
			d.watchHits = append(d.watchHits, WatchHit{
				Seq:   d.cpu.Instret(),
				Cycle: d.cpu.Cycle,
				PC:    d.cpu.PC,
				Addr:  addr,
				Size:  n,
			})
			d.watchNames = append(d.watchNames, w.name)
		}
	}
}

// ReportWatches renders the hit list, symbolised and sorted by sequence.
func (d *Debugger) ReportWatches() string {
	hits := d.WatchHits()
	names := d.WatchHitNames()
	idx := make([]int, len(hits))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return hits[idx[a]].Seq < hits[idx[b]].Seq })
	out := ""
	for _, i := range idx {
		h := hits[i]
		out += fmt.Sprintf("watch %q hit: %d-byte store to %#x from %s (cycle %d)\n",
			names[i], h.Size, h.Addr, d.Symbolize(h.PC), h.Cycle)
	}
	if out == "" {
		out = "no watchpoint hits\n"
	}
	return out
}
