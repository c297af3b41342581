package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAbsClearsTheSignBit: Abs is the sign bit cleared and nothing else, at
// both widths — negative zero, infinities, subnormals and NaN payloads
// included.
func TestAbsClearsTheSignBit(t *testing.T) {
	for _, v := range []float64{-0.0, math.Copysign(0, -1), 1, -1, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Inf(-1), math.Inf(1), -math.NaN(), math.Float64frombits(0xfff8_0000_0000_1234)} {
		if got, want := math.Float64bits(Abs(v)), math.Float64bits(v)&^(1<<63); got != want {
			t.Errorf("Abs(float64 %v) = %#x, want %#x", v, got, want)
		}
		f := float32(v)
		if got, want := math.Float32bits(Abs(f)), math.Float32bits(f)&^(1<<31); got != want {
			t.Errorf("Abs(float32 %v) = %#x, want %#x", f, got, want)
		}
	}
}

func TestAbsMinMax(t *testing.T) {
	if Abs(float32(-2.5)) != 2.5 || Abs(float64(3)) != 3 || Abs(0.0) != 0 {
		t.Fatal("Abs wrong")
	}
	if Max(1.0, 2.0) != 2.0 || Max(float32(5), 2) != 5 {
		t.Fatal("Max wrong")
	}
	if Min(1.0, 2.0) != 1.0 || Min(float32(5), 2) != 2 {
		t.Fatal("Min wrong")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(101.0, 100.0, 1); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("RelErr(101,100) = %g, want 0.01", got)
	}
	// Below the floor: absolute fallback scaled by 1/floor.
	if got := RelErr(0.5, 0.0, 1.0); got != 0.5 {
		t.Fatalf("RelErr below floor = %g, want 0.5", got)
	}
	if got := RelErr(100.0, 100.0, 1); got != 0 {
		t.Fatalf("RelErr equal = %g, want 0", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(1.5) || !IsFinite(float32(-2)) {
		t.Fatal("finite values misclassified")
	}
	if IsFinite(math.Inf(1)) || IsFinite(math.NaN()) || IsFinite(float32(math.Inf(-1))) {
		t.Fatal("non-finite values misclassified")
	}
}

func TestFlipBitInvolution(t *testing.T) {
	// Property: flipping the same bit twice restores the value exactly.
	f := func(v float64, bit uint8) bool {
		b := int(bit % 64)
		w := FlipBit(FlipBit(v, b), b)
		return math.Float64bits(w) == math.Float64bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v float32, bit uint8) bool {
		b := int(bit % 32)
		w := FlipBit(FlipBit(v, b), b)
		return math.Float32bits(w) == math.Float32bits(v)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitChangesValue(t *testing.T) {
	// Property: a flip always changes the bit pattern.
	f := func(v float32, bit uint8) bool {
		b := int(bit % 32)
		return math.Float32bits(FlipBit(v, b)) != math.Float32bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitKnownPositions(t *testing.T) {
	// Sign bit of binary32.
	if got := FlipBit(float32(1), 31); got != -1 {
		t.Fatalf("sign flip of 1.0f = %g, want -1", got)
	}
	// Sign bit of binary64.
	if got := FlipBit(2.5, 63); got != -2.5 {
		t.Fatalf("sign flip of 2.5 = %g, want -2.5", got)
	}
	// LSB of the binary32 fraction changes by 1 ULP.
	v := float32(1.0)
	if got := FlipBit(v, 0); got != math.Nextafter32(v, 2) {
		t.Fatalf("fraction LSB flip of 1.0f = %g, want next float", got)
	}
	// Top exponent bit of binary32 explodes the magnitude.
	if got := FlipBit(float32(1.0), 30); got < 1e30 {
		t.Fatalf("exponent flip of 1.0f = %g, want huge", got)
	}
}

func TestFlipBitModuloWidth(t *testing.T) {
	if FlipBit(float32(1), 32+31) != -1 {
		t.Fatal("bit position should reduce modulo 32 for float32")
	}
}

func TestBitWidth(t *testing.T) {
	if BitWidth[float32]() != 32 {
		t.Fatal("float32 width")
	}
	if BitWidth[float64]() != 64 {
		t.Fatal("float64 width")
	}
}

func TestClassifyBit(t *testing.T) {
	cases := []struct {
		bit  int
		want BitClass
	}{
		{0, FractionBit}, {22, FractionBit}, {23, ExponentBit},
		{30, ExponentBit}, {31, SignBit},
	}
	for _, c := range cases {
		if got := ClassifyBit[float32](c.bit); got != c.want {
			t.Fatalf("ClassifyBit[float32](%d) = %v, want %v", c.bit, got, c.want)
		}
	}
	cases64 := []struct {
		bit  int
		want BitClass
	}{
		{0, FractionBit}, {51, FractionBit}, {52, ExponentBit},
		{62, ExponentBit}, {63, SignBit},
	}
	for _, c := range cases64 {
		if got := ClassifyBit[float64](c.bit); got != c.want {
			t.Fatalf("ClassifyBit[float64](%d) = %v, want %v", c.bit, got, c.want)
		}
	}
	if FractionBit.String() != "fraction" || ExponentBit.String() != "exponent" || SignBit.String() != "sign" {
		t.Fatal("BitClass names wrong")
	}
}

func TestKahanSumBeatsPlain(t *testing.T) {
	// Summing many small values onto a large one: plain float32
	// accumulation loses them, Kahan keeps them.
	xs := make([]float32, 100001)
	xs[0] = 1 << 20
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.01
	}
	want := float64(1<<20) + 0.01*100000
	plainErr := math.Abs(float64(Sum(xs)) - want)
	kahanErr := math.Abs(float64(KahanSum(xs)) - want)
	if kahanErr >= plainErr {
		t.Fatalf("Kahan error %g not better than plain %g", kahanErr, plainErr)
	}
	if kahanErr > 1 {
		t.Fatalf("Kahan error %g too large", kahanErr)
	}
}

func TestAccumulatorMatchesKahanSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
	}
	var acc Accumulator[float64]
	for _, x := range xs {
		acc.Add(x)
	}
	if acc.Value() != KahanSum(xs) {
		t.Fatalf("Accumulator %g != KahanSum %g", acc.Value(), KahanSum(xs))
	}
	acc.Reset()
	if acc.Value() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestEpsilonFor(t *testing.T) {
	if EpsilonFor[float32]() != float32(math.Pow(2, -23)) {
		t.Fatal("float32 epsilon")
	}
	if EpsilonFor[float64]() != math.Pow(2, -52) {
		t.Fatal("float64 epsilon")
	}
}

func TestNextAfterUp(t *testing.T) {
	if NextAfterUp(float32(1)) <= 1 {
		t.Fatal("float32 NextAfterUp not increasing")
	}
	if NextAfterUp(1.0) <= 1.0 {
		t.Fatal("float64 NextAfterUp not increasing")
	}
}
