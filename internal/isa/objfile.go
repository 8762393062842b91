package isa

import (
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
const (
	objMagic   = "SIMX"
	objVersion = 1
	// objMaxSection guards against absurd allocations from corrupt or
	// hostile files.
	objMaxSection = 64 << 20
)

// WriteTo serialises the image in SIMX format.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(objMagic)
	le := binary.LittleEndian
	var tmp [8]byte
	le.PutUint32(tmp[:4], objVersion)
	buf.Write(tmp[:4])
	for _, v := range []uint64{
		img.Base, img.DataBase, img.Entry,
		uint64(len(img.Code)), uint64(len(img.Data)), uint64(len(img.Symbols)),
	} {
		le.PutUint64(tmp[:], v)
		buf.Write(tmp[:])
	}
	buf.Write(img.Code)
	buf.Write(img.Data)
	// Deterministic symbol order.
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		le.PutUint32(tmp[:4], uint32(len(n)))
		buf.Write(tmp[:4])
		buf.WriteString(n)
		le.PutUint64(tmp[:], img.Symbols[n])
		buf.Write(tmp[:])
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
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
	if img.Data, err = readSection(r, dataLen); err != nil {
		return nil, fmt.Errorf("isa: reading data: %w", err)
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
