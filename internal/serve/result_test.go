package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"stencilabft/internal/stats"
)

// TestAppendCell32MatchesStrconv: the float32 kernel writes what
// strconv.AppendFloat(v, 'f', -1, 64) writes, byte for byte, at every binary
// exponent it takes and one beyond each end — the first and last 512
// mantissas, every one-bit mantissa and 16384 seeded random ones, both signs —
// and declines exactly the exponents outside [2⁻⁸, 2⁵³).
func TestAppendCell32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var mants []uint32
	for m := uint32(0); m < 512; m++ {
		mants = append(mants, m, 1<<23-1-m)
	}
	for i := 0; i < 23; i++ {
		mants = append(mants, 1<<i)
	}
	for i := 0; i < 16384; i++ {
		mants = append(mants, rng.Uint32()&(1<<23-1))
	}
	const first, last = 119, 179 // biased exponents of 2⁻⁸ and 2⁵²
	var got, want []byte
	for exp := uint32(first - 1); exp <= last+1; exp++ {
		for _, sign := range []uint32{0, 1 << 31} {
			for _, m := range mants {
				b := sign | exp<<23 | m
				var ok bool
				got, ok = appendCell32(got[:0], b)
				if ok != (exp >= first && exp <= last) {
					t.Fatalf("bits %08x (exponent %d): kernel took it = %v", b, exp, ok)
				}
				if !ok {
					continue
				}
				want = strconv.AppendFloat(want[:0], float64(math.Float32frombits(b)), 'f', -1, 64)
				if !bytes.Equal(got, want) {
					t.Fatalf("bits %08x: got %s, want %s", b, got, want)
				}
			}
		}
	}
}

// TestAppendCell32SpareCapacity: the kernel stores straight into dst's spare
// capacity, eight bytes at a time. Whatever the slack — from none, which
// makes it grow, to more than it ever writes — and whatever the spare bytes
// held, the cell it appends is strconv's, and nothing before len(dst) moves.
func TestAppendCell32SpareCapacity(t *testing.T) {
	prefix := []byte(`{"data":[1.5,`)
	for _, b := range []uint32{
		0x3b800005, // 0.0039062523283064365: 19 fraction digits, the most taken
		0xbb800005, // its negative
		0x42c8490f, // 100.14269256591797: serve_grid's shape
		0x3f800000, // 1: an integer with k > 0
		0x3f000000, // 0.5
		0xcb7fffff, // -16777215: an integer with k = 0
		0x59ffffff, // 9007198717870080: 16 integer digits, the largest taken
		0xc7f1203f, // -123456.4921875
	} {
		want := strconv.AppendFloat(append([]byte(nil), prefix...), float64(math.Float32frombits(b)), 'f', -1, 64)
		for slack := 0; slack <= 40; slack++ {
			dst := make([]byte, len(prefix), len(prefix)+slack)
			copy(dst, prefix)
			spare := dst[len(dst):cap(dst)]
			for i := range spare {
				spare[i] = 0xAA
			}
			got, ok := appendCell32(dst, b)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("bits %08x, %d spare bytes: got %q (%v), want %q", b, slack, got, ok, want)
			}
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("bits %08x, %d spare bytes: the bytes before len(dst) became %q", b, slack, dst)
			}
		}
	}
}

// FuzzResultCell32: a one-cell float32 grid's text is encoding/json's for the
// widened value, whichever path formats it, and a non-finite cell is refused.
func FuzzResultCell32(f *testing.F) {
	for _, b := range []uint32{0, 1 << 31, 1, 0x007fffff, 0x00800000, 0x3b7fffff, 0x3b800000, 0x3b80901b,
		0x3dcccccd, 0xbdcccccd, 0x3f800000, 0x42c80000, 0x4b000000, 0x59ffffff, 0x5a000000, 0x7f7fffff, 0x7f800000, 0xff800000, 0x7fc00000} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		got, err := appendCells(nil, 4, binary.LittleEndian.AppendUint32(nil, b))
		var want []byte
		werr := errNonFinite
		if f := float64(math.Float32frombits(b)); !math.IsNaN(f) && !math.IsInf(f, 0) {
			want, werr = json.Marshal(f)
		}
		if err != werr || !bytes.Equal(got, want) {
			t.Fatalf("bits %08x: got %s (%v), want %s (%v)", b, got, err, want, werr)
		}
	})
}

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestResultJSONAllocs: encoding a 256² float32 result into a buffer sized
// the way writeResult sizes it allocates nothing for the cells — as many
// times as a one-cell result, the stats marshal's — and no more than the
// generic decode-then-format writer this replaced, which made 4 allocations
// here (its decoded cell slice among them; this one makes 2).
func TestResultJSONAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under the race detector are not the build's: its sync.Pool drops items at random")
	}
	const n = 256 * 256
	raw := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(100+float32(i)/7))
	}
	st := stats.Stats{Iterations: 16, Detections: 2}
	buf := make([]byte, 0, 20*n+1024)
	allocs := func(g *GridPayload) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := appendResultJSON(buf[:0], "j0001-0123456789ab", false, g, st); err != nil {
				t.Fatal(err)
			}
		})
	}
	grid := allocs(&GridPayload{Nx: 256, Ny: 256, Elem: "float32", Raw: raw})
	cell := allocs(&GridPayload{Nx: 1, Ny: 1, Elem: "float32", Raw: raw[:4]})
	if grid > 4 || grid != cell {
		t.Fatalf("appendResultJSON: %.0f allocations on a 256² float32 grid, %.0f on one cell; want equal and at most 4", grid, cell)
	}
}
