package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// File format: a fixed little-endian header, the checksum vector, the
// domain data, and a trailing CRC-32 (Castagnoli) over everything before
// it. A checkpoint whose CRC does not match is reported as corrupt — a
// checkpoint file is itself memory/disk state and gets no exemption from
// the fault model.
const (
	fileMagic   = 0x53414246 // "FBAS" — stencil ABFT snapshot
	fileVersion = 1
)

type fileHeader struct {
	Magic     uint32
	Version   uint32
	ElemBits  uint32 // 32 or 64
	Iteration int64
	Nx, Ny    int64
	ChecksumN int64 // number of checksum entries stored
}

// WriteFile atomically writes a checkpoint of g (plus its verified column
// checksums and iteration number) to path: the data goes to a temporary
// file in the same directory which is renamed over path on success, so a
// crash mid-write never destroys the previous checkpoint.
func WriteFile[T num.Float](path string, iter int, g *grid.Grid[T], b []T) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	w := bufio.NewWriter(io.MultiWriter(tmp, crc))

	hdr := fileHeader{
		Magic:     fileMagic,
		Version:   fileVersion,
		ElemBits:  uint32(num.BitWidth[T]()),
		Iteration: int64(iter),
		Nx:        int64(g.Nx()),
		Ny:        int64(g.Ny()),
		ChecksumN: int64(len(b)),
	}
	if err = binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err = writeFloats(w, b); err != nil {
		return err
	}
	if err = writeFloats(w, g.Data()); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if err = binary.Write(tmp, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads a checkpoint written by WriteFile, returning the domain,
// the stored checksum vector and the iteration number. It verifies the
// trailing CRC and every header field before trusting the payload.
func ReadFile[T num.Float](path string) (*grid.Grid[T], []T, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	g, b, iter, err := decode[T](raw)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return g, b, iter, nil
}

// readHeader verifies the trailing CRC of a checkpoint file's bytes, then
// its magic and version, and returns the header with a reader positioned
// at the payload behind it.
func readHeader(raw []byte) (fileHeader, *sliceReader, error) {
	var hdr fileHeader
	if len(raw) < 4 {
		return hdr, nil, errors.New("truncated")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); got != binary.LittleEndian.Uint32(tail) {
		return hdr, nil, errors.New("CRC mismatch (corrupt checkpoint)")
	}
	r := &sliceReader{buf: body}
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return hdr, nil, err
	}
	if hdr.Magic != fileMagic {
		return hdr, nil, errors.New("not a checkpoint file")
	}
	if hdr.Version != fileVersion {
		return hdr, nil, fmt.Errorf("unsupported version %d", hdr.Version)
	}
	return hdr, r, nil
}

// decode parses the bytes of a checkpoint file. A CRC only proves the
// bytes are the ones written, not that a checkpoint writer wrote them, so
// the header's lengths are bounded by the payload that is actually there —
// by division, before any of them is multiplied or allocated from.
func decode[T num.Float](raw []byte) (*grid.Grid[T], []T, int, error) {
	hdr, r, err := readHeader(raw)
	if err != nil {
		return nil, nil, 0, err
	}
	width := int64(num.BitWidth[T]() / 8)
	if int64(hdr.ElemBits) != 8*width {
		return nil, nil, 0, fmt.Errorf("element width %d, want %d", hdr.ElemBits, 8*width)
	}
	payload := int64(r.remaining())
	cells := payload/width - hdr.ChecksumN
	if hdr.Nx <= 0 || hdr.Ny <= 0 || hdr.ChecksumN < 0 ||
		payload%width != 0 || cells%hdr.Nx != 0 || cells/hdr.Nx != hdr.Ny {
		return nil, nil, 0, fmt.Errorf("payload %d bytes does not hold a %dx%d grid and %d checksums", payload, hdr.Nx, hdr.Ny, hdr.ChecksumN)
	}

	b := make([]T, hdr.ChecksumN)
	if err := readFloats(r, b); err != nil {
		return nil, nil, 0, err
	}
	g := grid.New[T](int(hdr.Nx), int(hdr.Ny))
	if err := readFloats(r, g.Data()); err != nil {
		return nil, nil, 0, err
	}
	return g, b, int(hdr.Iteration), nil
}

// PeekIter verifies a checkpoint file's CRC and returns the iteration it
// snapshots, without decoding the payload and without caring about the
// element type — what a coordinator scanning many ranks' rotations for a
// common restart generation needs.
func PeekIter(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	hdr, _, err := readHeader(raw)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return int(hdr.Iteration), nil
}

// sliceReader is a minimal io.Reader over a byte slice that tracks the
// remaining length (bytes.Reader would work too; this avoids the import).
type sliceReader struct{ buf []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (r *sliceReader) remaining() int { return len(r.buf) }

func writeFloats[T num.Float](w io.Writer, xs []T) error {
	var scratch [8]byte
	for _, x := range xs {
		var n int
		switch v := any(x).(type) {
		case float32:
			binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(v))
			n = 4
		case float64:
			binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
			n = 8
		}
		if _, err := w.Write(scratch[:n]); err != nil {
			return err
		}
	}
	return nil
}

func readFloats[T num.Float](r io.Reader, xs []T) error {
	width := num.BitWidth[T]() / 8
	var scratch [8]byte
	for i := range xs {
		if _, err := io.ReadFull(r, scratch[:width]); err != nil {
			return err
		}
		if width == 4 {
			xs[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(scratch[:4])))
		} else {
			xs[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(scratch[:8])))
		}
	}
	return nil
}
