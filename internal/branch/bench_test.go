package branch_test

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/branch"
	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// traffic is a branch stream a core fed its predictors, in retire order.
type traffic struct {
	condPC []uint64 // conditional branch sites
	taken  []bool   // their outcomes
	indPC  []uint64 // indirect call and jump sites
	target []uint64 // their resolved targets
	rsb    []uint64 // per call its pushed return address, per return 0
}

// recorded is the stream of one benign run and one CR-Spectre run of
// the Math host on one machine: the host's workload, then its overflow,
// the ROP chain's unmatched returns and the BTB-variant attack binary
// the chain launches. It is what the predictors' updates see: 6,564
// conditional branches over 11 sites (the workload's hot branches are
// taken 5-10% of the time, the attack's loops 99%), 32 indirect
// branches from one site, and 284 calls at most three deep, the RSB
// underflowing only on the chain's two extra returns.
var recorded = sync.OnceValues(func() (*traffic, error) {
	const secret = "S3CR3T_K"
	mod, err := mibench.Math(100).HostModule(rop.HostOptions{Secret: secret})
	if err != nil {
		return nil, err
	}
	m := vm.New(vm.DefaultConfig())
	m.Register("host", mod, rop.HostBase)
	img, err := m.Load("host")
	if err != nil {
		return nil, err
	}
	att, err := spectre.Config{Variant: spectre.VBTB, TargetAddr: img.MustSymbol("__secret"), SecretLen: len(secret)}.Module()
	if err != nil {
		return nil, err
	}
	m.Register("attack", att, 0x400000)
	plan, err := rop.PlanInjection(gadget.ScanAndCatalog(img, 3), "attack", nil)
	if err != nil {
		return nil, err
	}

	t := &traffic{}
	c := m.CPU
	c.OnRetire = func(pc uint64, in isa.Instruction) {
		// The hook runs after retirement: c.PC is where control went.
		switch op := in.Op; {
		case op.IsCondBranch():
			t.condPC = append(t.condPC, pc)
			t.taken = append(t.taken, c.PC != pc+isa.InstrSize)
		case op == isa.RET:
			t.rsb = append(t.rsb, 0)
		case op == isa.CALL, op == isa.CALLR, op == isa.JMPR:
			if op != isa.JMPR {
				t.rsb = append(t.rsb, pc+isa.InstrSize)
			}
			if op != isa.CALL {
				t.indPC, t.target = append(t.indPC, pc), append(t.target, c.PC)
			}
		}
	}
	for _, arg := range [][]byte{[]byte("x"), plan.Payload} {
		if err := m.Exec("host", arg, 10_000_000); err != nil {
			return nil, err
		}
	}
	if !slices.Contains(m.ExecLog, "attack") || !strings.Contains(m.Output.String(), secret) {
		return nil, errors.New("the injected attack did not run")
	}
	return t, nil
})

// stream returns the recorded traffic, failing b if it cannot be had.
func stream(b *testing.B) *traffic {
	t, err := recorded()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return t
}

// benchHits keeps each benchmark's prediction results live.
var benchHits int

// benchCond measures one Predict and one Update of a conditional
// predictor, the work a core does per retired conditional branch.
func benchCond(b *testing.B, p branch.CondPredictor) {
	t := stream(b)
	hits := 0
	for i, j := 0, 0; i < b.N; i++ {
		if p.Predict(t.condPC[j]) == t.taken[j] {
			hits++
		}
		p.Update(t.condPC[j], t.taken[j])
		if j++; j == len(t.condPC) {
			j = 0
		}
	}
	benchHits = hits
}

// BenchmarkPHT measures the default unit's 4096-entry PHT.
func BenchmarkPHT(b *testing.B) { benchCond(b, branch.NewPHT(4096)) }

// BenchmarkGshare measures the gshare unit's 4096-entry predictor with
// 12 history bits.
func BenchmarkGshare(b *testing.B) { benchCond(b, branch.NewGshare(4096, 12)) }

// BenchmarkBTB measures one Predict and one Update of the default
// tagged BTB, the work per retired indirect branch.
func BenchmarkBTB(b *testing.B) {
	btb := branch.NewBTBTagged(branch.DefaultBTBEntries, branch.DefaultBTBTagBits)
	t := stream(b)
	hits := 0
	for i, j := 0, 0; i < b.N; i++ {
		if target, ok := btb.Predict(t.indPC[j]); ok && target == t.target[j] {
			hits++
		}
		btb.Update(t.indPC[j], t.target[j])
		if j++; j == len(t.indPC) {
			j = 0
		}
	}
	benchHits = hits
}

// BenchmarkRSB measures one call's push or one return's pop on the
// default 16-deep RSB.
func BenchmarkRSB(b *testing.B) {
	rsb := branch.NewRSB(16)
	t := stream(b)
	hits := 0
	for i, j := 0, 0; i < b.N; i++ {
		if ret := t.rsb[j]; ret != 0 {
			rsb.Push(ret)
		} else if _, ok := rsb.Pop(); ok {
			hits++
		}
		if j++; j == len(t.rsb) {
			j = 0
		}
	}
	benchHits = hits
}
