package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"stencilabft/internal/grid"
)

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := grid.New[float32](13, 9)
	g.FillFunc(func(x, y int) float32 { return rng.Float32() * 100 })
	b := make([]float32, 9)
	for i := range b {
		b[i] = rng.Float32()
	}
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := WriteFile(path, 42, g, b); err != nil {
		t.Fatal(err)
	}
	g2, b2, iter, err := ReadFile[float32](path)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 42 {
		t.Fatalf("iteration %d", iter)
	}
	if g2.MaxAbsDiff(g) != 0 {
		t.Fatal("domain not restored bit-exactly")
	}
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("checksums not restored")
		}
	}
}

func TestFileRoundTripFloat64SpecialValues(t *testing.T) {
	g := grid.New[float64](3, 2)
	g.Set(0, 0, math.Inf(1))
	g.Set(1, 0, -0.0)
	g.Set(2, 0, math.SmallestNonzeroFloat64)
	g.Set(0, 1, math.MaxFloat64)
	path := filepath.Join(t.TempDir(), "ckpt64.bin")
	if err := WriteFile(path, 0, g, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := ReadFile[float64](path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g2.At(0, 0)) != math.Float64bits(g.At(0, 0)) ||
		math.Float64bits(g2.At(1, 0)) != math.Float64bits(g.At(1, 0)) ||
		math.Float64bits(g2.At(2, 0)) != math.Float64bits(g.At(2, 0)) ||
		math.Float64bits(g2.At(0, 1)) != math.Float64bits(g.At(0, 1)) {
		t.Fatal("special values not preserved bit-exactly")
	}
}

func TestFileDetectsCorruption(t *testing.T) {
	g := grid.New[float32](8, 8)
	g.Fill(3)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := WriteFile(path, 7, g, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10 // flip a bit mid-payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFile[float32](path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestFileRejectsWrongWidth(t *testing.T) {
	g := grid.New[float32](4, 4)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := WriteFile(path, 0, g, make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFile[float64](path); err == nil {
		t.Fatal("float64 read of float32 checkpoint accepted")
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(path, []byte("not a checkpoint at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFile[float32](path); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, _, err := ReadFile[float32](filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFileOverwriteIsAtomicShape(t *testing.T) {
	// Writing over an existing checkpoint must leave a readable file
	// (the temp-and-rename protocol) and no stray temp files.
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	g := grid.New[float32](4, 4)
	for i := 0; i < 3; i++ {
		g.Fill(float32(i))
		if err := WriteFile(path, i, g, make([]float32, 4)); err != nil {
			t.Fatal(err)
		}
	}
	g2, _, iter, err := ReadFile[float32](path)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 2 || g2.At(0, 0) != 2 {
		t.Fatal("latest checkpoint not the visible one")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files left behind: %v", entries)
	}
}

// sealed appends the trailing CRC to a checkpoint body, so hand-built and
// fuzzed bytes get past the integrity check to the header checks behind it.
func sealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// header is the body of a float32 checkpoint file with no payload.
func header(nx, ny, checksumN int64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, fileHeader{Magic: fileMagic, Version: fileVersion, ElemBits: 32, Nx: nx, Ny: ny, ChecksumN: checksumN})
	return buf.Bytes()
}

// TestFileRejectsLyingHeader: a CRC-valid file whose header announces more
// than its payload holds is refused before anything is sized from it. The
// first rows are products that wrap to the payload length actually present.
func TestFileRejectsLyingHeader(t *testing.T) {
	for _, tc := range []struct {
		name              string
		nx, ny, checksumN int64
		payload           int
	}{
		{"nx*ny wraps int64 to 2^62", 1 << 31, 1 << 31, 0, 0},
		{"nx*ny wraps int64 to 0", 1 << 32, 1 << 32, 0, 0},
		{"checksumN*width wraps to 0", 1, 1, 1 << 62, 4},
		{"grid larger than payload", 4, 4, 0, 4 * 15},
		{"checksums larger than payload", 1, 1, 3, 4 * 3},
		{"ragged payload", 2, 2, 1, 4*5 + 2},
		{"columns do not divide cells", 3, 2, 0, 4 * 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.bin")
			raw := sealed(append(header(tc.nx, tc.ny, tc.checksumN), make([]byte, tc.payload)...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			g, b, _, err := ReadFile[float32](path)
			if err == nil {
				t.Fatalf("accepted as %v with %d checksums", g, len(b))
			}
		})
	}
}

// FuzzReadFile feeds arbitrary CRC-sealed bytes to the checkpoint loader —
// what `stencilrun -restore` and the recovery coordinator do with whatever
// is on disk. It must never panic, never allocate on the header's say-so
// (TotalAlloc is process-wide, hence the fixed slack for the fuzz worker's
// own bookkeeping), and whatever it accepts must be written back byte for
// byte.
func FuzzReadFile(f *testing.F) {
	dir := f.TempDir()
	g := grid.New[float32](3, 2)
	g.FillFunc(func(x, y int) float32 { return float32(x) - 1.5*float32(y) })
	good := filepath.Join(dir, "good.bin")
	if err := WriteFile(good, 7, g, []float32{1, float32(math.NaN())}); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	body := raw[:len(raw)-4]
	f.Add(body)
	f.Add(body[:len(body)-4]) // one cell short
	f.Add(header(1<<31, 1<<31, 0))
	f.Add(header(1<<32, 1<<32, 0))
	f.Add(append(header(1, 1, 1<<62), 0, 0, 0, 0))
	f.Add([]byte("not a checkpoint at all, definitely"))

	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := sealed(body)
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, b, iter, err := ReadFile[float32](in)
		runtime.ReadMemStats(&after)
		if grew, allow := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+16*len(raw)); grew > allow {
			t.Fatalf("reading %d input bytes allocated %d (allowance %d)", len(raw), grew, allow)
		}
		if peek, perr := PeekIter(in); err == nil && (perr != nil || peek != iter) {
			t.Fatalf("ReadFile says iteration %d, PeekIter %d, %v", iter, peek, perr)
		}
		if err != nil {
			return
		}
		if err := WriteFile(out, iter, g, b); err != nil {
			t.Fatal(err)
		}
		if back, err := os.ReadFile(out); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("round trip changed the file (%v):\n got %x\nwant %x", err, back, raw)
		}
	})
}
