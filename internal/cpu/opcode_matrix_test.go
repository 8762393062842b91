package cpu

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// opcodeMatrix is one small program per opcode with its architectural
// result, run by TestOpcodeSemanticsMatrix.
var opcodeMatrix = []struct {
	name string
	src  string
	reg  int
	want uint64
}{
	{"movi", "movi r1, 42\nhalt", 1, 42},
	{"movi_negative", "movi r1, -1\nhalt", 1, ^uint64(0)},
	{"mov", "movi r2, 9\nmov r1, r2\nhalt", 1, 9},
	{"add", "movi r2, 3\nmovi r3, 4\nadd r1, r2, r3\nhalt", 1, 7},
	{"sub_wraps", "movi r2, 1\nmovi r3, 2\nsub r1, r2, r3\nhalt", 1, ^uint64(0)},
	{"mul", "movi r2, 6\nmovi r3, 7\nmul r1, r2, r3\nhalt", 1, 42},
	{"div", "movi r2, 42\nmovi r3, 5\ndiv r1, r2, r3\nhalt", 1, 8},
	{"mod", "movi r2, 42\nmovi r3, 5\nmod r1, r2, r3\nhalt", 1, 2},
	{"and", "movi r2, 12\nmovi r3, 10\nand r1, r2, r3\nhalt", 1, 8},
	{"or", "movi r2, 12\nmovi r3, 10\nor r1, r2, r3\nhalt", 1, 14},
	{"xor", "movi r2, 12\nmovi r3, 10\nxor r1, r2, r3\nhalt", 1, 6},
	{"shl", "movi r2, 1\nmovi r3, 12\nshl r1, r2, r3\nhalt", 1, 4096},
	{"shr", "movi r2, 4096\nmovi r3, 12\nshr r1, r2, r3\nhalt", 1, 1},
	{"sar_negative", "movi r2, -16\nmovi r3, 2\nsar r1, r2, r3\nhalt", 1, ^uint64(0) - 3}, // -4
	{"shr_negative_is_logical", "movi r2, -16\nmovi r3, 60\nshr r1, r2, r3\nhalt", 1, 15},
	{"addi", "movi r2, 40\naddi r1, r2, 2\nhalt", 1, 42},
	{"subi", "movi r2, 44\nsubi r1, r2, 2\nhalt", 1, 42},
	{"muli", "movi r2, 21\nmuli r1, r2, 2\nhalt", 1, 42},
	{"divi", "movi r2, 84\ndivi r1, r2, 2\nhalt", 1, 42},
	{"modi", "movi r2, 44\nmodi r1, r2, 43\nhalt", 1, 1},
	{"andi", "movi r2, 0xff\nandi r1, r2, 0x0f\nhalt", 1, 15},
	{"ori", "movi r2, 0xf0\nori r1, r2, 0x0f\nhalt", 1, 255},
	{"xori", "movi r2, 0xff\nxori r1, r2, 0x0f\nhalt", 1, 0xf0},
	{"shli", "movi r2, 3\nshli r1, r2, 4\nhalt", 1, 48},
	{"shri", "movi r2, 48\nshri r1, r2, 4\nhalt", 1, 3},
	{"shift_mod64", "movi r2, 1\nshli r1, r2, 65\nhalt", 1, 2},
	{"load_store", "movi r2, d\nmovi r3, 777\nstore [r2], r3\nload r1, [r2]\nhalt\n.data\nd: .word 0", 1, 777},
	{"loadb_low_byte", "movi r2, d\nmovi r3, 0x1234\nstore [r2], r3\nloadb r1, [r2]\nhalt\n.data\nd: .word 0", 1, 0x34},
	{"storeb_truncates", "movi r2, d\nmovi r3, 0x1FF\nstoreb [r2], r3\nload r1, [r2]\nhalt\n.data\nd: .word 0", 1, 0xFF},
	{"load_displacement", "movi r2, d\nload r1, [r2+8]\nhalt\n.data\nd: .word 1, 99", 1, 99},
	{"push_pop", "movi r2, 5\npush r2\npop r1\nhalt", 1, 5},
	{"rdtsc_nonzero", "nop\nnop\nrdtsc r1\ncmpi r1, 0\nje bad\nmovi r1, 1\nhalt\nbad: movi r1, 0\nhalt", 1, 1},
	{"je_taken", "movi r2, 5\ncmpi r2, 5\nje yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jne_not_taken", "movi r2, 5\ncmpi r2, 5\njne yes\nmovi r1, 1\nhalt\nyes: movi r1, 0\nhalt", 1, 1},
	{"jl_signed", "movi r2, -5\ncmpi r2, 0\njl yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jle_equal", "movi r2, 5\ncmpi r2, 5\njle yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jg_signed", "movi r2, 5\ncmpi r2, -1\njg yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jge_equal", "movi r2, 5\ncmpi r2, 5\njge yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jb_unsigned", "movi r2, 5\ncmpi r2, -1\njb yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jbe_equal", "movi r2, 5\ncmpi r2, 5\njbe yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"ja_unsigned", "movi r2, -1\ncmpi r2, 5\nja yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jae_equal", "movi r2, 5\ncmpi r2, 5\njae yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"jmp", "jmp over\nmovi r1, 0\nhalt\nover: movi r1, 1\nhalt", 1, 1},
	{"jmpr", "movi r2, over\njmpr r2\nmovi r1, 0\nhalt\nover: movi r1, 1\nhalt", 1, 1},
	{"call_ret", ".entry main\nf: movi r1, 1\nret\nmain: movi r1, 0\ncall f\nhalt", 1, 1},
	{"callr", ".entry main\nf: movi r1, 1\nret\nmain: movi r2, f\nmovi r1, 0\ncallr r2\nhalt", 1, 1},
	{"cmp_reg_form", "movi r2, 3\nmovi r3, 3\ncmp r2, r3\nje yes\nmovi r1, 0\nhalt\nyes: movi r1, 1\nhalt", 1, 1},
	{"clflush_is_functional_noop", "movi r2, d\nmovi r3, 5\nstore [r2], r3\nclflush [r2]\nload r1, [r2]\nhalt\n.data\nd: .word 0", 1, 5},
	{"mfence_preserves_state", "movi r1, 7\nmfence\nhalt", 1, 7},
	{"lfence_preserves_state", "movi r1, 7\nlfence\nhalt", 1, 7},
	{"nop", "movi r1, 3\nnop\nhalt", 1, 3},
}

// TestOpcodeSemanticsMatrix runs a small program per opcode and checks
// the architectural result — a systematic spot check that every
// instruction computes what its documentation says.
func TestOpcodeSemanticsMatrix(t *testing.T) {
	for _, tc := range opcodeMatrix {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := load(t, tc.src, DefaultConfig())
			mustRun(t, c, 10_000)
			if got := c.Regs[tc.reg]; got != tc.want {
				t.Errorf("r%d = %d (%#x), want %d (%#x)", tc.reg, got, got, tc.want, tc.want)
			}
		})
	}
}

// TestOpcodeMatrixCoversISA assembles every matrix program and fails,
// naming them, when valid opcodes other than SYSCALL/HALT (covered by
// dedicated tests) appear in none — so a newly added opcode cannot go
// unexercised. It also holds every valid opcode to an op-table entry
// whose class routes it as the ISA defines: exactly the control
// transfers, HALT and the serializing MFENCE, LFENCE and SYSCALL end a
// block.
func TestOpcodeMatrixCoversISA(t *testing.T) {
	seen := map[isa.Op]bool{}
	for _, tc := range opcodeMatrix {
		mod, err := isa.Assemble(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		img, err := mod.Link(0x10000)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ins, err := isa.DecodeAll(img.Code)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, in := range ins {
			seen[in.Op] = true
		}
	}
	serializing := map[isa.Op]bool{isa.MFENCE: true, isa.LFENCE: true, isa.SYSCALL: true}
	var missing []string
	for op := isa.Op(0); op.Valid(); op++ {
		if !seen[op] && op != isa.SYSCALL && op != isa.HALT {
			missing = append(missing, op.String())
		}
		e := opTab[op]
		if e.class == clsInvalid {
			t.Errorf("%s has no op-table entry", op)
			continue
		}
		if e.class.terminates() != (op == isa.HALT || op.IsBranch() || serializing[op]) {
			t.Errorf("%s: op-table class %d: terminates() = %v", op, e.class, e.class.terminates())
		}
	}
	if len(missing) > 0 {
		t.Errorf("no opcode-matrix program exercises: %s", strings.Join(missing, ", "))
	}
}

// TestFusedCompareBranchMatrix pins a block whose body ends in CMP/CMPI
// and whose exit is the conditional branch reading those flags, the two
// retired back to back, against the single-step interpreter for every
// conditional branch opcode, both compare forms, and operand orderings
// covering all flag combinations (equal, signed-less, unsigned-below and
// their inverses).
// The single-step side is itself pinned against the reference oracle by
// TestOpcodeSemanticsMatrix and the lock-step suite, so agreement here
// closes the chain. The comparison is the full tier contract: result
// register, materialized flags, Cycle and the whole PMU snapshot.
func TestFusedCompareBranchMatrix(t *testing.T) {
	branches := []string{"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae"}
	operands := []struct {
		name string
		a, b int64
	}{
		{"equal", 5, 5},
		{"less", 3, 9},
		{"greater", 9, 3},
		{"neg_vs_pos", -5, 3},
		{"pos_vs_neg", 3, -5},
		{"neg_equal", -5, -5},
	}
	for _, br := range branches {
		for _, form := range []string{"cmp", "cmpi"} {
			for _, ops := range operands {
				name := br + "_" + form + "_" + ops.name
				t.Run(name, func(t *testing.T) {
					var cmpLine string
					if form == "cmp" {
						cmpLine = "cmp r2, r3"
					} else {
						cmpLine = "cmpi r2, " + itoa64(ops.b)
					}
					src := "movi r2, " + itoa64(ops.a) + "\n" +
						"movi r3, " + itoa64(ops.b) + "\n" +
						cmpLine + "\n" +
						br + " yes\n" +
						"movi r1, 0\nhalt\nyes: movi r1, 1\nhalt"
					run := func(noBlocks bool) *CPU {
						cfg := DefaultConfig()
						cfg.NoBlocks = noBlocks
						c, _ := load(t, src, cfg)
						mustRun(t, c, 1000)
						return c
					}
					cb, cs := run(false), run(true)
					if cb.Regs[1] != cs.Regs[1] {
						t.Fatalf("branch outcome differs: blocks r1=%d single-step r1=%d", cb.Regs[1], cs.Regs[1])
					}
					bz, blt, bb := cb.Flags()
					sz, slt, sb := cs.Flags()
					if bz != sz || blt != slt || bb != sb {
						t.Fatalf("materialized flags differ: blocks=(%v %v %v) single-step=(%v %v %v)",
							bz, blt, bb, sz, slt, sb)
					}
					if cb.Cycle != cs.Cycle || cb.Snapshot() != cs.Snapshot() {
						t.Fatalf("machine state differs:\nblocks:      %+v\nsingle-step: %+v",
							cb.Snapshot(), cs.Snapshot())
					}
					var exited bool
					for _, b := range cb.Blocks() {
						exited = exited || b.Exit == br
					}
					if !exited {
						t.Fatalf("no block exits through %s: %+v", br, cb.Blocks())
					}
				})
			}
		}
	}
}

// itoa64 renders a possibly negative immediate for assembly source.
func itoa64(v int64) string {
	if v < 0 {
		return "-" + itoa64(-v)
	}
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
