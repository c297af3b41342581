package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// distinct sets every leaf field of s, found by reflection, to a value no
// other field holds — so a field the codec skipped, swapped or truncated
// shows — and returns how many leaves it set.
func distinct(s *Stats) int {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := range v.Len() {
				fill(v.Index(i))
			}
		case reflect.String:
			n++
			v.SetString("grid 2x3 · field " + strings.Repeat("#", n))
		default:
			n++
			x := int64(n) * 1_000_003
			if n%2 == 0 {
				x = -x
			}
			v.SetInt(x)
		}
	}
	fill(reflect.ValueOf(s).Elem())
	return n
}

// TestBinaryRoundTripsEveryField: a Stats with every field set to its own
// value decodes to itself, so a field added later cannot be dropped on the
// worker pipe without this failing; the extremes of int64 and the zero
// Stats survive too.
func TestBinaryRoundTripsEveryField(t *testing.T) {
	var full Stats
	if leaves := distinct(&full); leaves < 50 {
		t.Fatalf("found %d leaf fields by reflection; Stats has more", leaves)
	}
	extreme := full
	extreme.Timing.PackNs, extreme.Timing.SendNs = math.MaxInt64, math.MinInt64
	extreme.Iterations, extreme.Topology = math.MinInt, ""
	for name, in := range map[string]Stats{"every field": full, "extremes": extreme, "zero": {}} {
		b, err := in.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if string(b[:6]) != "prefix" {
			t.Fatalf("%s: AppendBinary overwrote what it appends to", name)
		}
		var out Stats
		if err := out.UnmarshalBinary(b[6:]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out != in {
			t.Fatalf("%s: decoded\n%+v\nwant\n%+v", name, out, in)
		}
	}

	// What the protocol saves: a fault-free local run's counters.
	run := Stats{Iterations: 4, Verifications: 4, Timing: Timing{SweepNs: 31_000, VerifyNs: 9_000, RanksTimed: 1}}
	b, _ := run.AppendBinary(nil)
	j, _ := json.Marshal(run)
	t.Logf("a 4-iteration run's Stats: %d bytes binary, %d bytes JSON", len(b), len(j))
	if len(b) >= len(j)/4 {
		t.Fatalf("binary form is %d bytes against JSON's %d", len(b), len(j))
	}
}

// TestBinaryRejectsBadInput: input cut short anywhere, followed by
// trailing bytes, or holding an overlong varint or a string longer than
// what is left is an error — never a panic — and a huge announced string
// allocates nothing.
func TestBinaryRejectsBadInput(t *testing.T) {
	var full Stats
	distinct(&full)
	b, err := full.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := range len(b) {
		var s Stats
		if err := s.UnmarshalBinary(b[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte form decoded", n, len(b))
		}
	}
	var s Stats
	if err := s.UnmarshalBinary(append(b[:len(b):len(b)], 0)); err == nil || !strings.Contains(err.Error(), "trail") {
		t.Fatalf("trailing byte: %v", err)
	}
	overlong := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if err := s.UnmarshalBinary(overlong); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("overlong varint: %v", err)
	}

	// Sixteen zero varints reach Topology; its announced length of 2⁶² is
	// refused against what is left, not sliced or allocated.
	huge := append(make([]byte, 16), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40)
	if err := s.UnmarshalBinary(huge); err == nil || !strings.Contains(err.Error(), "left") {
		t.Fatalf("huge string length: %v", err)
	}
}

// TestFieldsRoundTrip: the walk Stats' binary form rides is open to any
// struct of ints, strings and nested structs, under the same rules — a
// short or trailing input is an error — and refuses a field it cannot
// encode.
func TestFieldsRoundTrip(t *testing.T) {
	type inner struct {
		A int64
		S string
	}
	type rec struct {
		N   int
		In  inner
		Arr [2]int
		T   string
	}
	in := rec{N: -7, In: inner{A: math.MaxInt64, S: "x\x00y"}, Arr: [2]int{3, -4}, T: "tail"}
	b, err := AppendFields(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out rec
	if err := UnmarshalFields(b, &out); err != nil || out != in {
		t.Fatalf("decoded %+v, %v; want %+v", out, err, in)
	}
	if err := UnmarshalFields(b[:len(b)-1], &out); err == nil {
		t.Fatal("a cut-short record decoded")
	}
	if err := UnmarshalFields(append(b, 0), &out); err == nil || !strings.Contains(err.Error(), "trail") {
		t.Fatalf("trailing byte: %v", err)
	}
	if _, err := AppendFields(nil, &struct{ F float64 }{1}); err == nil {
		t.Fatal("a float field encoded")
	}
}
