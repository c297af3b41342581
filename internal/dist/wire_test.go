package dist

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestWireFrameRoundTrip pins the frame encoding: every header field and
// the payload survive a serialise/parse cycle.
func TestWireFrameRoundTrip(t *testing.T) {
	in := frame{
		kind: frameToken, from: 3, to: 7, dir: byte(Left), elem: 8,
		gen: 0xDEADBEEF, round: 12, payload: []byte{1, 2, 3, 4, 5},
	}
	out, err := readFrame(bytes.NewReader(appendFrame(nil, in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != in.kind || out.from != in.from || out.to != in.to ||
		out.dir != in.dir || out.elem != in.elem || out.gen != in.gen ||
		out.round != in.round || !bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip mangled the frame: sent %+v, got %+v", in, out)
	}
}

// TestWireVersionMismatch checks a frame from another wire revision is
// rejected with an error naming both versions — the contract the satellite
// failure-path tests and serveConn rely on.
func TestWireVersionMismatch(t *testing.T) {
	buf := appendFrame(nil, frame{kind: frameHalo})
	buf[2] = wireVersion + 3
	_, err := readFrame(bytes.NewReader(buf))
	if err == nil {
		t.Fatal("mismatched wire version accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 6") || !strings.Contains(msg, "speaks version 3") {
		t.Errorf("version error %q does not name peer and own versions", msg)
	}
}

// TestWireBadMagicAndTruncation covers the remaining reject paths: foreign
// bytes, an oversized declared payload, and a payload cut short.
func TestWireBadMagicAndTruncation(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(bytes.Repeat([]byte{'x'}, wireHeaderSize))); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("foreign bytes accepted: %v", err)
	}

	huge := appendFrame(nil, frame{kind: frameHalo})
	huge[20], huge[21], huge[22], huge[23] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized payload length accepted: %v", err)
	}

	cut := appendFrame(nil, frame{kind: frameHalo, elem: 8, payload: make([]byte, 64)})
	if _, err := readFrame(bytes.NewReader(cut[:len(cut)-8])); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated payload accepted: %v", err)
	}
}

// TestWireElems pins the halo payload codec: bit-exact round trips for both
// element widths (including NaN payload bits and signed zero) and rejection
// of width mismatches and ragged payloads.
func TestWireElems(t *testing.T) {
	f64 := []float64{0, math.Copysign(0, -1), 1.5, -2.75e300, math.NaN()}
	got64, err := DecodeElems[float64](8, AppendElems(nil, f64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f64 {
		if math.Float64bits(got64[i]) != math.Float64bits(f64[i]) {
			t.Errorf("float64[%d]: bits %x -> %x", i, math.Float64bits(f64[i]), math.Float64bits(got64[i]))
		}
	}

	f32 := []float32{0, 1.5, -3.25e30, float32(math.NaN())}
	got32, err := DecodeElems[float32](4, AppendElems(nil, f32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f32 {
		if math.Float32bits(got32[i]) != math.Float32bits(f32[i]) {
			t.Errorf("float32[%d]: bits %x -> %x", i, math.Float32bits(f32[i]), math.Float32bits(got32[i]))
		}
	}

	if _, err := DecodeElems[float64](4, make([]byte, 8)); err == nil || !strings.Contains(err.Error(), "element width") {
		t.Errorf("width mismatch accepted: %v", err)
	}
	if _, err := DecodeElems[float64](8, make([]byte, 12)); err == nil || !strings.Contains(err.Error(), "whole number") {
		t.Errorf("ragged payload accepted: %v", err)
	}
}

// TestEncodeHaloFrameMatchesAppendFrame pins the in-place encoding of an
// edge's data frames — header, elements appended, sealed last (post) —
// against the general frame serialiser byte for byte.
func TestEncodeHaloFrameMatchesAppendFrame(t *testing.T) {
	data := []float64{1.5, -2.25, 3.125}
	want := appendFrame(nil, frame{
		kind: frameHalo, from: 3, to: 5, dir: byte(Up), elem: 8, gen: 17, seq: 9,
		payload: AppendElems(nil, data),
	})
	got := make([]byte, wireHeaderSize)
	putHeader(got, frame{kind: frameHalo, from: 3, to: 5, dir: byte(Up), elem: 8, gen: 17})
	got = AppendElems(got, data)
	sealFrame(got, 9)
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place halo frame:\n got %x\nwant %x", got, want)
	}
}

// FuzzWireFrame feeds arbitrary bytes to the control-plane frame reader —
// what a coordinator endpoint does with whatever connects to it. It must
// never panic, never allocate on a header's say-so (the fuzz inputs are
// small, so anything beyond a few payloadChunks was announced, not sent), and
// whatever it accepts must survive a write/read round trip unchanged.
func FuzzWireFrame(f *testing.F) {
	f.Add(appendFrame(nil, frame{kind: frameToken, from: 3, to: 7, dir: byte(Left), elem: 8, gen: 0xDEADBEEF, round: 12, payload: []byte{1, 2, 3, 4, 5}}))
	var state bytes.Buffer
	if err := WriteStateFrame(&state, 16, []float64{1.5, -2.25, math.NaN()}); err != nil {
		f.Fatal(err)
	}
	f.Add(state.Bytes())
	f.Add(state.Bytes()[:state.Len()-8])             // payload cut short
	f.Add(bytes.Repeat([]byte{'x'}, wireHeaderSize)) // foreign bytes
	huge := appendFrame(nil, frame{kind: frameHalo}) // announces 1 GiB - 1, sends nothing
	huge[20], huge[21], huge[22], huge[23] = 0xFF, 0xFF, 0xFF, 0x3F
	f.Add(huge)
	wrongVersion := appendFrame(nil, frame{kind: frameHalo})
	wrongVersion[2] = wireVersion + 3
	f.Add(wrongVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadWireFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, allow := after.TotalAlloc-before.TotalAlloc, uint64(4*payloadChunk+64*len(data)); grew > allow {
			t.Fatalf("reading %d input bytes allocated %d (allowance %d)", len(data), grew, allow)
		}
		if err != nil {
			return
		}
		if len(fr.Payload) > len(data)-wireHeaderSize {
			t.Fatalf("a %d-byte input yielded a %d-byte payload", len(data), len(fr.Payload))
		}
		var out bytes.Buffer
		if err := WriteWireFrame(&out, fr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadWireFrame(&out)
		if err != nil || back.Kind != fr.Kind || back.Gen != fr.Gen || back.Elem != fr.Elem || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("round trip of %+v came back as %+v, %v", fr, back, err)
		}
		if fr.Kind == FrameState { // the element decoder sees the same outside bytes
			if _, _, err := DecodeStateFrame[float64](fr); err == nil && fr.Elem != 8 {
				t.Fatalf("a width-%d state frame decoded as float64", fr.Elem)
			}
		}
	})
}
