package checksum

import (
	"math"
	"math/rand"
	"testing"
)

func TestCompareFlagsOnlyExceeding(t *testing.T) {
	d := Detector[float64]{Epsilon: 1e-6, AbsFloor: 1}
	direct := []float64{100, 200, 300, 400}
	interp := []float64{100, 200.001, 300, 400.0000001}
	ms := d.Compare(direct, interp)
	if len(ms) != 1 || ms[0].Index != 1 {
		t.Fatalf("mismatches = %+v", ms)
	}
	if ms[0].Residual != interp[1]-direct[1] {
		t.Fatal("residual wrong")
	}
}

func TestCompareCleanAllocatesNothing(t *testing.T) {
	d := NewDetector[float64]()
	direct := []float64{1, 2, 3}
	if ms := d.Compare(direct, direct); ms != nil {
		t.Fatalf("clean compare returned %v", ms)
	}
}

func TestAnyMismatch(t *testing.T) {
	d := Detector[float64]{Epsilon: 1e-6, AbsFloor: 1}
	if d.AnyMismatch([]float64{5, 5}, []float64{5, 5}) {
		t.Fatal("false positive")
	}
	if !d.AnyMismatch([]float64{5, 5}, []float64{5, 6}) {
		t.Fatal("missed mismatch")
	}
}

// TestAnyMismatchIsExceeds holds both screens — the scan and the last
// interpolation pass, which screens each entry as it produces it — to the
// exact test entry by entry, seeded and generated: clean, borderline (at
// the screen's ε/2 and at ε itself, a few ulps either side) and flagged
// residuals of either sign, zero and sub-floor checksums, NaN and ±Inf on
// either side, and detectors with and without a floor. The pass adds 1·v
// and then 0·0 to a zero entry, which is v (a -0 becomes +0, which no test
// tells apart).
func TestAnyMismatchIsExceeds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0.5, -0.5}
	for trial := 0; trial < 4000; trial++ {
		d := Detector[float64]{Epsilon: []float64{1e-5, 1e-9, 0.3}[rng.Intn(3)], AbsFloor: []float64{1, 0, 1e-3}[rng.Intn(3)]}
		n := 1 + rng.Intn(4)
		direct, interp := make([]float64, n), make([]float64, n)
		for i := range direct {
			w := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(8)-2))
			if rng.Intn(8) == 0 {
				w = special[rng.Intn(len(special))]
			}
			v := w * (1 + d.Epsilon*(4*rng.Float64()-2))
			switch rng.Intn(8) {
			case 0:
				v = w
			case 1:
				v = special[rng.Intn(len(special))]
			case 2: // borderline: the residual at the screen's or the threshold's edge
				scale := max(math.Abs(w), d.AbsFloor)
				edge := []float64{d.Epsilon / 2, d.Epsilon}[rng.Intn(2)] * scale
				v = w + math.Copysign(edge, rng.Float64()-0.5)
				for to := math.Inf(2*rng.Intn(2) - 1); rng.Intn(3) > 0; {
					v = math.Nextafter(v, to)
				}
			}
			direct[i], interp[i] = w, v
		}
		want := false
		for i := range direct {
			want = want || d.Exceeds(direct[i], interp[i])
		}
		if got := d.AnyMismatch(direct, interp); got != want {
			t.Fatalf("%+v: AnyMismatch(%v, %v) = %v, the entries' Exceeds say %v", d, direct, interp, got, want)
		}
		out, zero := make([]float64, n), make([]float64, n)
		if got := screenTerms2(out, 1, interp, 0, zero, direct, d); got != want {
			t.Fatalf("%+v: the screened pass over (%v, %v) says %v, the entries' Exceeds say %v", d, direct, interp, got, want)
		}
		for i, v := range out {
			if v != interp[i] && !(math.IsNaN(v) && math.IsNaN(interp[i])) {
				t.Fatalf("the screened pass stored %v for %v", v, interp[i])
			}
		}
	}
}

func TestDetectorZeroSumLines(t *testing.T) {
	// Near-zero checksums must neither divide by zero nor flag noise.
	d := Detector[float64]{Epsilon: 1e-5, AbsFloor: 1}
	if d.Exceeds(0, 1e-9) {
		t.Fatal("noise near zero flagged")
	}
	if !d.Exceeds(0, 0.5) {
		t.Fatal("real deviation near zero missed")
	}
}

func TestDetectorNonFinite(t *testing.T) {
	d := NewDetector[float64]()
	if !d.Exceeds(math.Inf(1), 100) {
		t.Fatal("Inf direct checksum not flagged")
	}
	if !d.Exceeds(100, math.NaN()) {
		t.Fatal("NaN interp checksum not flagged")
	}
	if !d.Exceeds(math.Inf(1), math.Inf(1)) {
		t.Fatal("matching Infs not flagged (a healthy checksum is finite)")
	}
}

func TestMaxRelErr(t *testing.T) {
	d := Detector[float64]{Epsilon: 1e-6, AbsFloor: 1}
	got := d.MaxRelErr([]float64{100, 200}, []float64{101, 200})
	if math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("MaxRelErr = %g", got)
	}
	if !math.IsInf(d.MaxRelErr([]float64{math.NaN()}, []float64{1}), 1) {
		t.Fatal("non-finite should yield +Inf")
	}
}

func TestComparePanicsOnLengthMismatch(t *testing.T) {
	d := NewDetector[float64]()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	d.Compare([]float64{1}, []float64{1, 2})
}
