package isa_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/spectre"
)

// benchSources are the sources the assembler and linker benchmarks build:
// the v1 attack binary, whose flush+reload probe array is a 128 KiB
// .space, and the chase background host, whose table is a 1 MiB .space.
func benchSources(b *testing.B) []struct{ name, src string } {
	chase, err := mibench.ByName("chase_fast")
	if err != nil {
		b.Fatal(err)
	}
	v1 := spectre.Config{Variant: spectre.V1BoundsCheck, TargetAddr: 0x200000, SecretLen: 8}
	return []struct{ name, src string }{
		{"v1", v1.Source()},
		{"chase", rop.HostSource(chase.Asm, rop.HostOptions{})},
	}
}

// BenchmarkAssemble measures one Assemble of each benchmark source.
func BenchmarkAssemble(b *testing.B) {
	for _, s := range benchSources(b) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := isa.Assemble(s.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLink measures one Link of each benchmark module, the per-load
// cost an ASLR slide pays.
func BenchmarkLink(b *testing.B) {
	for _, s := range benchSources(b) {
		mod := isa.MustAssemble(s.src)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mod.Link(0x100000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCode is the code section the decode benchmarks read: the
// campaigns' CR host, math, linked at the campaigns' base.
func benchCode(b *testing.B) []byte {
	mod, err := mibench.Math(300).HostModule(rop.HostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	img, err := mod.Link(0x100000)
	if err != nil {
		b.Fatal(err)
	}
	return img.Code
}

var sinkInstr isa.Instruction

// BenchmarkDecode measures the validating decoder over a host's code; one
// op decodes every instruction once.
func BenchmarkDecode(b *testing.B) {
	code := benchCode(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(code); off += isa.InstrSize {
			in, err := isa.Decode(code[off:])
			if err != nil {
				b.Fatal(err)
			}
			sinkInstr = in
		}
	}
}

// BenchmarkDecodeFast is BenchmarkDecode through the predecoder's
// unvalidated decoder.
func BenchmarkDecodeFast(b *testing.B) {
	code := benchCode(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(code); off += isa.InstrSize {
			sinkInstr = isa.DecodeFast(code[off:])
		}
	}
}
