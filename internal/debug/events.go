package debug

import (
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// DumpEvents writes the newest lastN telemetry events as a symbolised
// timeline: speculation episodes, cache traffic and attack markers
// (RET pivots, stack smashes, covert probes) alongside retirements.
// A nil recorder dumps nothing.
func (d *Debugger) DumpEvents(w io.Writer, rec *telemetry.Recorder, lastN int) {
	if rec == nil {
		return
	}
	evs := rec.Events()
	if lastN > 0 && len(evs) > lastN {
		evs = evs[len(evs)-lastN:]
	}
	fmt.Fprintf(w, "events (last %d of %d recorded, %d dropped):\n",
		len(evs), rec.Total(), rec.Dropped())
	for _, ev := range evs {
		fmt.Fprintf(w, "  %8d %10d  %-17s %s\n", ev.Seq, ev.Cycle, ev.Kind, d.DescribeEvent(ev))
	}
}

// DescribeEvent renders one telemetry event's payload with every code
// address symbolised, kind by kind (each kind packs PC/Addr/Val/Level
// differently; see the emit sites in internal/cpu and internal/cache).
func (d *Debugger) DescribeEvent(ev telemetry.Event) string {
	switch ev.Kind {
	case telemetry.KindRetire:
		return fmt.Sprintf("pc=%s op=%s", d.Symbolize(ev.PC), isa.Op(ev.Val))
	case telemetry.KindSpecEnter:
		return fmt.Sprintf("pc=%s deadline=%d", d.Symbolize(ev.PC), ev.Val)
	case telemetry.KindSpecSquash:
		return fmt.Sprintf("pc=%s transient-instrs=%d", d.Symbolize(ev.PC), ev.Val)
	case telemetry.KindCacheFill:
		return fmt.Sprintf("addr=%#x level=L%d latency=%d", ev.Addr, ev.Level, ev.Val)
	case telemetry.KindCacheEvict:
		return fmt.Sprintf("set/addr=%#x level=L%d", ev.Addr, ev.Level)
	case telemetry.KindCacheFlush:
		return fmt.Sprintf("addr=%#x level=L%d", ev.Addr, ev.Level)
	case telemetry.KindBranchMispredict:
		return fmt.Sprintf("pc=%s actual=%s", d.Symbolize(ev.PC), d.Symbolize(ev.Addr))
	case telemetry.KindRetPivot:
		return fmt.Sprintf("pc=%s -> %s (predicted %s)",
			d.Symbolize(ev.PC), d.Symbolize(ev.Addr), d.Symbolize(ev.Val))
	case telemetry.KindStackSmash:
		return fmt.Sprintf("pc=%s slot=%#x value=%#x", d.Symbolize(ev.PC), ev.Addr, ev.Val)
	case telemetry.KindCovertProbe:
		return fmt.Sprintf("pc=%s probe=%#x latency=%d", d.Symbolize(ev.PC), ev.Addr, ev.Val)
	case telemetry.KindExec:
		return fmt.Sprintf("entry=%s", d.Symbolize(ev.Addr))
	case telemetry.KindTaskStart, telemetry.KindTaskStop:
		return fmt.Sprintf("task=%d", ev.Addr)
	case telemetry.KindRopPlan:
		return fmt.Sprintf("payload=%dB chain=%d words", ev.Addr, ev.Val)
	default:
		return fmt.Sprintf("pc=%s addr=%#x val=%#x", d.Symbolize(ev.PC), ev.Addr, ev.Val)
	}
}
