package isa

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"
)

func linkedImage(t *testing.T) *Image {
	t.Helper()
	mod := MustAssemble(`
	.entry main
	f:	addi r1, r1, 1
		ret
	main:
		movi r1, 0
		call f
		halt
	.data
	greeting: .asciz "hello"
	table: .word 1, 2, 3
	`)
	img, err := mod.Link(0x40000)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestObjectRoundTrip(t *testing.T) {
	img := linkedImage(t)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != img.Base || got.DataBase != img.DataBase || got.Entry != img.Entry {
		t.Errorf("header mismatch: %+v vs %+v", got, img)
	}
	if !bytes.Equal(got.Code, img.Code) || got.DataSize != img.DataSize || !bytes.Equal(expand(t, got), expand(t, img)) {
		t.Error("sections mismatch")
	}
	if len(got.Symbols) != len(img.Symbols) {
		t.Fatalf("symbol count %d vs %d", len(got.Symbols), len(img.Symbols))
	}
	for n, a := range img.Symbols {
		if got.Symbols[n] != a {
			t.Errorf("symbol %s = %#x, want %#x", n, got.Symbols[n], a)
		}
	}
}

func TestObjectDeterministicBytes(t *testing.T) {
	img := linkedImage(t)
	var a, b bytes.Buffer
	if _, err := img.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := img.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialisation not deterministic")
	}
}

func TestObjectRejectsCorruption(t *testing.T) {
	img := linkedImage(t)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"bad magic":     func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":   func(b []byte) []byte { b[4] = 99; return b },
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"empty":         func(b []byte) []byte { return nil },
		"corrupt code":  func(b []byte) []byte { b[4+4+48] = 200; return b }, // invalid opcode
		"ragged length": func(b []byte) []byte { b[4+4+24] = 7; return b },   // codeLen not multiple of 16
	}
	for name, mutate := range cases {
		mut := mutate(append([]byte(nil), clean...))
		if _, err := ReadImage(bytes.NewReader(mut)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: truncating the file at ANY byte boundary must yield an
// error, never a panic or a silently short image.
func TestQuickObjectTruncation(t *testing.T) {
	img := linkedImage(t)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	i := 0
	f := func() bool {
		i = (i + 13) % len(clean) // deterministic walk over cut points
		_, err := ReadImage(bytes.NewReader(clean[:i]))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: len(clean)/13 + 2}); err != nil {
		t.Error(err)
	}
}

func TestObjectRoundTripRunnable(t *testing.T) {
	// The round-tripped image must still disassemble identically.
	img := linkedImage(t)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if DisasmAll(got.Code, got.Base) != DisasmAll(img.Code, img.Base) {
		t.Error("disassembly changed across round trip")
	}
}

// headerOnly is a 56-byte SIMX file: magic, version and a header whose
// section sizes claim codeLen/dataLen bytes and symCount symbols that
// never follow.
func headerOnly(codeLen, dataLen, symCount uint64) []byte {
	b := []byte(objMagic)
	b = binary.LittleEndian.AppendUint32(b, objVersion)
	for _, v := range []uint64{0x40000, 0x80000, 0x40000, codeLen, dataLen, symCount} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestReadImageAllocationBounded: a header may claim sections up to
// objMaxSection and a million symbols, but a reader that sizes its
// buffers from those claims lets a 56-byte input allocate tens of MiB.
// Memory must follow the bytes actually present.
func TestReadImageAllocationBounded(t *testing.T) {
	for name, in := range map[string][]byte{
		"code section": headerOnly(objMaxSection, 0, 0),
		"data section": headerOnly(0, objMaxSection, 0),
		"symbols":      headerOnly(0, 0, 1<<20),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadImage(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated image accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d-byte input allocated %d bytes, want < 1 MiB", name, len(in), got)
		}
	}
}

// FuzzReadImage: whatever ReadImage accepts must re-serialize stably —
// WriteTo then ReadImage then WriteTo reproduces the same bytes (the
// first WriteTo normalizes symbol order and drops duplicate names).
func FuzzReadImage(f *testing.F) {
	var buf bytes.Buffer
	img := MustAssemble(`
	.entry main
	f:	addi r1, r1, 1
		ret
	main:
		call f
		halt
	.data
	msg: .asciz "hi"
	`)
	linked, err := img.Link(0x40000)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := linked.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(headerOnly(InstrSize, 0, 1))
	f.Add([]byte(objMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if _, err := img.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		again, err := ReadImage(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a serialized accepted image: %v", err)
		}
		if _, err := again.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("serialization not stable:\n%x\n%x", a.Bytes(), b.Bytes())
		}
	})
}
