package isa

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Object-file format ("SIMX"): a minimal executable container for linked
// images, so binaries can be saved, shipped and inspected like the
// paper's compiled MiBench/attack executables.
//
// Layout (all little-endian uint64 unless noted):
//
//	magic   [4]byte "SIMX"
//	version uint32 (currently 1)
//	base, dataBase, entry uint64
//	codeLen, dataLen, symCount uint64
//	code    [codeLen]byte
//	data    [dataLen]byte
//	symbols symCount * { nameLen uint32, name [nameLen]byte, addr uint64 }
//
// The data section is stored dense: the gaps between an Image's runs are
// written as zeros, and ReadImage returns the section as one run.
const (
	objMagic   = "SIMX"
	objVersion = 1
	// objMaxSection guards against absurd allocations from corrupt or
	// hostile files. Assemble caps the data section at it, so every
	// image it links can be written and read back.
	objMaxSection = 64 << 20
)

// WriteTo serialises the image in SIMX format. It streams: the data
// section's gaps are written as zeros from one fixed page, so writing an
// image costs no copy of its sections.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	// bufio.Writer keeps the first error and turns every later write into
	// a no-op, so only Flush's error needs checking.
	bw.WriteString(objMagic)
	le := binary.LittleEndian
	var tmp [8]byte
	le.PutUint32(tmp[:4], objVersion)
	bw.Write(tmp[:4])
	for _, v := range []uint64{
		img.Base, img.DataBase, img.Entry,
		uint64(len(img.Code)), img.DataSize, uint64(len(img.Symbols)),
	} {
		le.PutUint64(tmp[:], v)
		bw.Write(tmp[:])
	}
	bw.Write(img.Code)
	at := uint64(0)
	for _, r := range img.Data {
		writeZeros(bw, r.Off-at)
		bw.Write(r.Bytes)
		at = r.end()
	}
	writeZeros(bw, img.DataSize-at)
	// Deterministic symbol order.
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		le.PutUint32(tmp[:4], uint32(len(n)))
		bw.Write(tmp[:4])
		bw.WriteString(n)
		le.PutUint64(tmp[:], img.Symbols[n])
		bw.Write(tmp[:])
	}
	err := bw.Flush()
	return cw.n, err
}

// zeroChunk is the source of every gap WriteTo expands.
var zeroChunk [PageSize]byte

func writeZeros(bw *bufio.Writer, n uint64) {
	for n > 0 {
		k := min(n, PageSize)
		bw.Write(zeroChunk[:k])
		n -= k
	}
}

// countWriter counts the bytes its writer accepts, for WriteTo's result.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadImage parses a SIMX object file, validating structure and that the
// code section decodes as canonical instructions.
func ReadImage(r io.Reader) (*Image, error) {
	le := binary.LittleEndian
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("isa: reading magic: %w", err)
	}
	if string(magic[:]) != objMagic {
		return nil, fmt.Errorf("isa: bad magic %q", magic[:])
	}
	var ver [4]byte
	if _, err := io.ReadFull(r, ver[:]); err != nil {
		return nil, err
	}
	if v := le.Uint32(ver[:]); v != objVersion {
		return nil, fmt.Errorf("isa: unsupported object version %d", v)
	}
	hdr := make([]byte, 6*8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("isa: reading header: %w", err)
	}
	img := &Image{
		Base:     le.Uint64(hdr[0:]),
		DataBase: le.Uint64(hdr[8:]),
		Entry:    le.Uint64(hdr[16:]),
	}
	codeLen := le.Uint64(hdr[24:])
	dataLen := le.Uint64(hdr[32:])
	symCount := le.Uint64(hdr[40:])
	if codeLen > objMaxSection || dataLen > objMaxSection || symCount > 1<<20 {
		return nil, fmt.Errorf("isa: unreasonable section sizes (%d/%d/%d)", codeLen, dataLen, symCount)
	}
	if codeLen%InstrSize != 0 {
		return nil, fmt.Errorf("isa: code length %d not instruction-aligned", codeLen)
	}
	var err error
	if img.Code, err = readSection(r, codeLen); err != nil {
		return nil, fmt.Errorf("isa: reading code: %w", err)
	}
	if _, err := DecodeAll(img.Code); err != nil {
		return nil, fmt.Errorf("isa: corrupt code section: %w", err)
	}
	data, err := readSection(r, dataLen)
	if err != nil {
		return nil, fmt.Errorf("isa: reading data: %w", err)
	}
	img.DataSize = dataLen
	if dataLen > 0 {
		img.Data = []Run{{Bytes: data}}
	}
	// No size hint: symCount is the file's claim, and each symbol is
	// only real once its bytes have been read.
	img.Symbols = make(map[string]uint64)
	var tmp [8]byte
	for i := uint64(0); i < symCount; i++ {
		if _, err := io.ReadFull(r, tmp[:4]); err != nil {
			return nil, fmt.Errorf("isa: reading symbol %d: %w", i, err)
		}
		nameLen := le.Uint32(tmp[:4])
		if nameLen == 0 || nameLen > 4096 {
			return nil, fmt.Errorf("isa: symbol %d has name length %d", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return nil, err
		}
		img.Symbols[string(name)] = le.Uint64(tmp[:])
	}
	return img, nil
}

// readSection reads an n-byte section (n ≤ objMaxSection), growing the
// buffer only as bytes arrive: a header claiming a huge section costs the
// bytes the input actually holds, not the claim.
func readSection(r io.Reader, n uint64) ([]byte, error) {
	buf := bytes.NewBuffer([]byte{})
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
