package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounter2Saturation(t *testing.T) {
	c := Counter2(0)
	for i := 0; i < 10; i++ {
		c = c.Update(true)
	}
	if c != 3 || !c.Predict() {
		t.Errorf("saturated up: c=%d predict=%v", c, c.Predict())
	}
	for i := 0; i < 10; i++ {
		c = c.Update(false)
	}
	if c != 0 || c.Predict() {
		t.Errorf("saturated down: c=%d predict=%v", c, c.Predict())
	}
}

func TestCounter2Hysteresis(t *testing.T) {
	// From strongly-taken, one not-taken outcome must not flip the
	// prediction (that hysteresis is what Spectre's mistraining relies
	// on surviving one malicious call).
	c := Counter2(3)
	c = c.Update(false)
	if !c.Predict() {
		t.Error("single contrary outcome flipped a strong counter")
	}
}

func TestPHTTrainsPerBranch(t *testing.T) {
	p := NewPHT(1024)
	pcA := uint64(0x1000)
	for i := 0; i < 4; i++ {
		p.Update(pcA, true)
	}
	if !p.Predict(pcA) {
		t.Error("trained-taken branch predicted not-taken")
	}
	// A distant PC that doesn't alias keeps the default.
	if p.Predict(0x1010) {
		t.Error("untrained branch predicted taken")
	}
}

func TestPHTAliasing(t *testing.T) {
	p := NewPHT(16)
	// Entries stride at 16-byte instruction granularity; with 16
	// entries, pc and pc + 16*16 alias.
	pc := uint64(0x100)
	alias := pc + 16*16
	for i := 0; i < 4; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(alias) {
		t.Error("aliased PHT entries should share training state")
	}
}

func TestGshareHistoryDisambiguates(t *testing.T) {
	g := NewGshare(4096, 12)
	pc := uint64(0x2000)
	// Alternating pattern: gshare learns it through history.
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		// Predict before update (training loop).
		g.Predict(pc)
		g.Update(pc, taken)
	}
	// After heavy training, predictions should track the alternation.
	correct := 0
	for i := 400; i < 500; i++ {
		taken := i%2 == 0
		if g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
	}
	if correct < 90 {
		t.Errorf("gshare learned alternating pattern only %d/100", correct)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(512)
	if _, ok := b.Predict(0x400); ok {
		t.Error("cold BTB produced a prediction")
	}
	b.Update(0x400, 0x9000)
	tgt, ok := b.Predict(0x400)
	if !ok || tgt != 0x9000 {
		t.Errorf("BTB predict = %#x, %v", tgt, ok)
	}
	// Different PC mapping to same slot replaces (direct-mapped).
	b.Update(0x400+512*16, 0xA000)
	if _, ok := b.Predict(0x400); ok {
		t.Error("stale tag survived conflict replacement")
	}
}

func TestRSBLIFO(t *testing.T) {
	r := NewRSB(4)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop from empty RSB succeeded")
	}
}

func TestRSBOverflowDropsOldest(t *testing.T) {
	r := NewRSB(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // drops 1
	a, _ := r.Pop()
	b, _ := r.Pop()
	if a != 3 || b != 2 {
		t.Errorf("pops = %d,%d want 3,2", a, b)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RSB retained dropped entry")
	}
}

// Property: for any push/pop interleaving that stays within depth, the
// RSB behaves exactly like a stack.
func TestQuickRSBMatchesStack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		r := NewRSB(64)
		var ref []uint64
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				r.Push(v)
				if len(ref) == 64 {
					ref = ref[1:]
				}
				ref = append(ref, v)
			} else {
				got, ok := r.Pop()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return r.Depth() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnitConstructors(t *testing.T) {
	u := NewUnit()
	if u.Cond == nil || u.BTB == nil || u.RSB == nil {
		t.Fatal("NewUnit left nil components")
	}
	g := NewGshareUnit()
	if _, ok := g.Cond.(*Gshare); !ok {
		t.Error("NewGshareUnit did not use gshare")
	}
	u.Stats.CondBranches = 5
	u.ResetStats()
	if u.Stats.CondBranches != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"PHT":    func() { NewPHT(3) },
		"gshare": func() { NewGshare(0, 4) },
		"BTB":    func() { NewBTB(5) },
		"RSB":    func() { NewRSB(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s constructor accepted bad size", name)
				}
			}()
			f()
		}()
	}
}

func TestRSBClear(t *testing.T) {
	r := NewRSB(4)
	r.Push(1)
	r.Clear()
	if r.Depth() != 0 {
		t.Error("Clear left entries")
	}
}
